//! Nearest-rank percentiles and the "ten samples beyond" rule.

use bep_benchmark::stats::{mean, median, percentile, share, supported_tail, MIN_BEYOND};

#[test]
fn nearest_rank_picks_the_smallest_value_covering_p_percent() {
    let v: Vec<u64> = (1..=2000).collect();
    assert_eq!(percentile(&v, 50.0), Some(1000));
    assert_eq!(percentile(&v, 90.0), Some(1800));
    assert_eq!(percentile(&v, 99.0), Some(1980));
    // Nearest rank never interpolates: the answer is always a sample.
    let v = [
        10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200,
        210,
    ];
    assert_eq!(percentile(&v, 50.0), Some(110));
    assert_eq!(percentile(&v, 10.0), Some(30));
}

#[test]
fn a_percentile_with_fewer_than_ten_samples_beyond_it_is_null() {
    // p99 of n samples has n - ceil(0.99 n) samples beyond it.
    let supported: Vec<u64> = (0..1000).collect();
    assert_eq!(1000 - 990, MIN_BEYOND);
    assert_eq!(percentile(&supported, 99.0), Some(989));
    let unsupported: Vec<u64> = (0..999).collect();
    assert_eq!(percentile(&unsupported, 99.0), None);
    // The rule holds for the median too: twenty samples is the least.
    assert_eq!(percentile(&(0..20).collect::<Vec<u64>>(), 50.0), Some(9));
    assert_eq!(percentile(&(0..19).collect::<Vec<u64>>(), 50.0), None);
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&supported, 100.0), None);
}

#[test]
fn a_gated_tail_falls_back_to_the_highest_supported_rank() {
    let enough: Vec<u64> = (0..1000).collect();
    assert_eq!(supported_tail(&enough, 99.0), Some((989, 99.0)));
    // 611 samples: rank 601 is the last with ten beyond it, p98.36.
    let short: Vec<u64> = (0..611).collect();
    let (value, at) = supported_tail(&short, 99.0).expect("supported");
    assert_eq!(value, 600);
    assert!((at - 98.363).abs() < 0.001, "{at}");
    assert_eq!(
        supported_tail(&(0..11).collect::<Vec<u64>>(), 99.0),
        Some((0, 100.0 / 11.0))
    );
    assert_eq!(supported_tail(&(0..10).collect::<Vec<u64>>(), 99.0), None);
}

#[test]
fn small_helpers() {
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[1, 2, 6]), 3.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(share(1.0, 4.0), 0.25);
    assert_eq!(share(1.0, 0.0), 0.0);
}
