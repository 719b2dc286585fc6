//! `--jobs` flag handling for the `benchjson` binary.

/// Applies a `--jobs N` argument (if present in `args`) to the
/// process-wide worker count used by the experiment fan-out, returning
/// the effective value. `--jobs 0` (and absence) means auto-detect.
///
/// Every other argument is left alone for the caller to parse.
pub fn apply_jobs_flag<I: IntoIterator<Item = String>>(args: I) -> usize {
    let args: Vec<String> = args.into_iter().collect();
    for pair in args.windows(2) {
        if pair[0] == "--jobs" {
            if let Ok(n) = pair[1].parse::<usize>() {
                qmx_workload::parallel::set_jobs(n);
            }
        }
    }
    qmx_workload::parallel::jobs()
}

/// Convenience wrapper over [`apply_jobs_flag`] reading the process args.
pub fn init_jobs() -> usize {
    apply_jobs_flag(std::env::args().skip(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_flag_sets_worker_count() {
        let n = apply_jobs_flag(["--jobs".to_string(), "3".to_string()]);
        assert_eq!(n, 3);
        qmx_workload::parallel::set_jobs(0);
    }

    #[test]
    fn absent_or_malformed_flag_keeps_auto() {
        qmx_workload::parallel::set_jobs(0);
        let auto = qmx_workload::parallel::jobs();
        assert_eq!(apply_jobs_flag(Vec::new()), auto);
        assert_eq!(
            apply_jobs_flag(["--jobs".to_string(), "lots".to_string()]),
            auto
        );
    }
}
