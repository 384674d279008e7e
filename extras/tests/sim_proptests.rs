//! Property-based tests of the simulation kernel.

use eps_sim::{quantile, Engine, RatioSeries, SimTime, Summary};
use proptest::prelude::*;

proptest! {
    /// Events pop in nondecreasing time order regardless of the
    /// schedule, and every scheduled event comes out exactly once.
    #[test]
    fn pops_are_time_ordered_and_complete(delays in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut engine = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = vec![false; delays.len()];
        while let Some((t, i)) = engine.pop() {
            prop_assert!(t >= last, "time went backwards");
            prop_assert_eq!(t, SimTime::from_nanos(delays[i]));
            prop_assert!(!seen[i], "event {} popped twice", i);
            seen[i] = true;
            last = t;
        }
        prop_assert!(seen.iter().all(|&s| s), "some event never fired");
    }

    /// Events scheduled for the same instant fire in scheduling order.
    #[test]
    fn ties_fire_in_fifo_order(
        count in 1usize..100,
        at in 0u64..1_000_000,
    ) {
        let mut engine = Engine::new();
        for i in 0..count {
            engine.schedule_at(SimTime::from_nanos(at), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| engine.pop().map(|(_, i)| i)).collect();
        prop_assert_eq!(order, (0..count).collect::<Vec<_>>());
    }

    /// The ratio series conserves totals: summing bin numerators and
    /// denominators reproduces the inputs.
    #[test]
    fn ratio_series_conserves_mass(
        samples in prop::collection::vec((0u64..10_000_000u64, 0u32..50, 1u32..50), 1..200),
    ) {
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
        prop_assert_eq!(bins_num, num_total);
        prop_assert_eq!(bins_den, den_total);
        prop_assert!((0.0..=1.0).contains(&series.total_ratio()));
        if let Some(min) = series.min_ratio() {
            prop_assert!(min <= series.total_ratio() + 1e-12);
        }
    }

    /// Merging summaries equals recording sequentially, up to float
    /// tolerance, for any split point.
    #[test]
    fn summary_merge_is_consistent(
        data in prop::collection::vec(-1e6f64..1e6, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64 * split_frac) as usize).min(data.len());
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        data[..split].iter().for_each(|&x| a.record(x));
        data[split..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() / (1.0 + whole.variance()) < 1e-6);
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
    }

    /// Quantiles are bounded by the extremes and monotone in q.
    #[test]
    fn quantiles_are_bounded_and_monotone(
        data in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = quantile(&data, lo).unwrap();
        let v_hi = quantile(&data, hi).unwrap();
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
        prop_assert!(v_lo <= v_hi + 1e-9);
    }

    /// Virtual-time arithmetic: conversions round-trip within a
    /// nanosecond and ordering matches the underlying nanos.
    #[test]
    fn simtime_roundtrips(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!((ta + tb).as_nanos(), a + b);
        prop_assert_eq!(ta.saturating_sub(tb).as_nanos(), a.saturating_sub(b));
        let secs = ta.as_secs_f64();
        if secs < 1e9 {
            let back = SimTime::from_secs_f64(secs);
            let diff = back.as_nanos().abs_diff(a);
            // f64 has 52 mantissa bits; allow proportional rounding.
            prop_assert!(diff as f64 <= 1.0 + a as f64 * 1e-15);
        }
    }
}
