//! Properties of the simulation kernel's statistics and virtual time.
//! (The calendar's ordering properties live beside it, in `eps-sim`.)

use eps_sim::check::{check, vec_of, CASES};
use eps_sim::{quantile, RatioSeries, SimTime, Summary};

/// The ratio series conserves totals: summing bin numerators and
/// denominators reproduces the inputs.
#[test]
fn ratio_series_conserves_mass() {
    check("ratio_series_conserves_mass", CASES, |rng| {
        let samples = vec_of(rng, 1..200, |r| {
            (
                r.random_range(0u64..10_000_000),
                r.random_range(0u32..50),
                r.random_range(1u32..50),
            )
        });
        let mut series = RatioSeries::new(SimTime::from_millis(100));
        let mut num_total = 0f64;
        let mut den_total = 0f64;
        for &(at, num, den) in &samples {
            let num = num.min(den);
            series.add(SimTime::from_nanos(at), num as f64, den as f64);
            num_total += num as f64;
            den_total += den as f64;
        }
        let bins_num: f64 = series.bins().iter().map(|b| b.numerator).sum();
        let bins_den: f64 = series.bins().iter().map(|b| b.denominator).sum();
        assert_eq!(bins_num, num_total);
        assert_eq!(bins_den, den_total);
        assert!((0.0..=1.0).contains(&series.total_ratio()));
        if let Some(min) = series.min_ratio() {
            assert!(min <= series.total_ratio() + 1e-12);
        }
    });
}

/// Merging summaries equals recording sequentially, up to float
/// tolerance, for any split point.
#[test]
fn summary_merge_is_consistent() {
    check("summary_merge_is_consistent", CASES, |rng| {
        let data = vec_of(rng, 2..200, |r| r.random_range(-1e6..1e6));
        let split_frac = rng.random_range(0.0..1.0);
        let split = ((data.len() as f64 * split_frac) as usize).min(data.len());
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        data[..split].iter().for_each(|&x| a.record(x));
        data[split..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-6);
        assert!((a.variance() - whole.variance()).abs() / (1.0 + whole.variance()) < 1e-6);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    });
}

/// Quantiles are bounded by the extremes and monotone in q.
#[test]
fn quantiles_are_bounded_and_monotone() {
    check("quantiles_are_bounded_and_monotone", CASES, |rng| {
        let data = vec_of(rng, 1..100, |r| r.random_range(-1e6..1e6));
        let q1 = rng.random_range(0.0..1.0);
        let q2 = rng.random_range(0.0..1.0);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = quantile(&data, lo).unwrap();
        let v_hi = quantile(&data, hi).unwrap();
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
        assert!(v_lo <= v_hi + 1e-9);
    });
}

/// Virtual-time arithmetic: conversions round-trip within a nanosecond
/// and ordering matches the underlying nanos.
#[test]
fn simtime_roundtrips() {
    check("simtime_roundtrips", CASES, |rng| {
        let a = rng.random_range(0..u64::MAX / 4);
        let b = rng.random_range(0..u64::MAX / 4);
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        assert_eq!(ta < tb, a < b);
        assert_eq!((ta + tb).as_nanos(), a + b);
        assert_eq!(ta.saturating_sub(tb).as_nanos(), a.saturating_sub(b));
        let secs = ta.as_secs_f64();
        if secs < 1e9 {
            let back = SimTime::from_secs_f64(secs);
            let diff = back.as_nanos().abs_diff(a);
            // f64 has 52 mantissa bits; allow proportional rounding.
            assert!(diff as f64 <= 1.0 + a as f64 * 1e-15);
        }
    });
}
