//! Process and per-thread counters from Linux `/proc`.

use std::collections::BTreeMap;

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = field(&status, "VmHWM:")?;
    Some(kib / 1024.0)
}

fn field(text: &str, key: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Scheduler counters of one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadStat {
    /// Time on a CPU, nanoseconds (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, nanoseconds (field 2).
    pub runq_ns: u64,
    /// Voluntary plus involuntary context switches (`status`).
    pub ctx_switches: u64,
}

impl std::ops::AddAssign for ThreadStat {
    fn add_assign(&mut self, o: ThreadStat) {
        self.cpu_ns += o.cpu_ns;
        self.runq_ns += o.runq_ns;
        self.ctx_switches += o.ctx_switches;
    }
}

/// Counters of thread `tid` of this process, `None` once it exited.
pub fn thread_stat(tid: u32) -> Option<ThreadStat> {
    let sched = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let mut f = sched.split_whitespace().map(|w| w.parse::<u64>().ok());
    let (cpu_ns, runq_ns) = (f.next()??, f.next()??);
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    let ctx = field(&status, "voluntary_ctxt_switches:")?
        + field(&status, "nonvoluntary_ctxt_switches:")?;
    Some(ThreadStat { cpu_ns, runq_ns, ctx_switches: ctx as u64 })
}

/// Counters of every live thread of this process, by tid.
pub fn all_threads() -> BTreeMap<u32, ThreadStat> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return BTreeMap::new() };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(|tid| Some((tid, thread_stat(tid)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_counters() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        let me = crate::wrap::current_tid().expect("thread id");
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(spin.elapsed());
        }
        let s = thread_stat(me).expect("own thread stats");
        assert!(s.cpu_ns > 0);
        assert!(all_threads().contains_key(&me));
    }
}
