//! Reads single samples out of the Prometheus text the daemon serves on
//! `GET /metrics`.

/// The value on the sample line for `series`, a metric name with its
/// labels exactly as the daemon writes them, e.g.
/// `paper_stage_calls_total{stage="execute"}`.
pub fn value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An excerpt of a real `/metrics` response.
    const TEXT: &str = "# HELP paper_cache_hits_total Result-cache lookups that hit.\n\
# TYPE paper_cache_hits_total counter\n\
paper_cache_hits_total 10\n\
# HELP paper_cache_misses_total Result-cache lookups that missed (corrupt entries count here).\n\
# TYPE paper_cache_misses_total counter\n\
paper_cache_misses_total 4\n\
# HELP paper_stage_seconds_total Wall-clock seconds spent per pipeline stage.\n\
# TYPE paper_stage_seconds_total counter\n\
paper_stage_seconds_total{stage=\"execute\"} 1.5\n\
paper_stage_seconds_total{stage=\"cache_lookup\"} 0.000125\n\
# HELP paper_stage_calls_total Completed calls per pipeline stage.\n\
# TYPE paper_stage_calls_total counter\n\
paper_stage_calls_total{stage=\"execute\"} 3\n\
paper_stage_calls_total{stage=\"cache_lookup\"} 14\n";

    #[test]
    fn reads_exact_series() {
        assert_eq!(value(TEXT, "paper_cache_hits_total"), Some(10.0));
        assert_eq!(value(TEXT, "paper_cache_misses_total"), Some(4.0));
        assert_eq!(
            value(TEXT, "paper_stage_seconds_total{stage=\"cache_lookup\"}"),
            Some(0.000125)
        );
        assert_eq!(
            value(TEXT, "paper_stage_calls_total{stage=\"execute\"}"),
            Some(3.0)
        );
        // A prefix of a name, or a label value the daemon does not emit,
        // finds nothing.
        assert_eq!(value(TEXT, "paper_cache"), None);
        assert_eq!(
            value(TEXT, "paper_stage_calls_total{stage=\"render\"}"),
            None
        );
    }
}
