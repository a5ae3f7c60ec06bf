//! The environment a run depends on: refuse knobs that would override
//! the workload's hints, and describe the host in the output.

use std::path::{Path, PathBuf};

use lio_pfs::QueueConfig;

/// `LIO_*` variables that `Hints`/`File::open` apply over the
/// workload's hints: any of them set would silently change the
/// workload.
const OVERRIDES: [&str; 6] = [
    "LIO_PIPELINE",
    "LIO_BACKEND",
    "LIO_PACK_KERNEL",
    "LIO_PACK_THREADS",
    "LIO_AUTOTUNE",
    "LIO_FAULT_SEED",
];

/// Instrumentation switches; allowed only in the traced run, whose
/// hints set every one of them explicitly anyway.
const INSTRUMENTATION: [&str; 7] = [
    "LIO_OBS",
    "LIO_TRACE",
    "LIO_PROFILE",
    "LIO_HEALTH",
    "LIO_HEALTH_ABORT",
    "LIO_HEALTH_DEADLINE_MS",
    "LIO_HEALTH_STATUS",
];

/// The variables that make this run refuse to start, if any.
pub fn refused(traced: bool) -> Vec<&'static str> {
    let instr: &[&'static str] = if traced { &[] } else { &INSTRUMENTATION };
    OVERRIDES
        .iter()
        .chain(instr)
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// Where the `os` backend puts its (unlinked) files: `LIO_OS_DIR`, or a
/// directory under the benchmark's output directory in the checkout.
pub fn os_dir(out_dir: &Path) -> PathBuf {
    std::env::var_os("LIO_OS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir.join("os"))
}

fn cpu_field(cpuinfo: &str, key: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The SIMD flags the pack kernels can use, as the CPU reports them.
fn isa_flags(cpuinfo: &str) -> Vec<String> {
    const WANT: [&str; 9] = [
        "sse2", "ssse3", "sse4_1", "sse4_2", "avx", "avx2", "avx512f", "avx512bw", "avx512vl",
    ];
    let flags = cpu_field(cpuinfo, "flags").unwrap_or_default();
    let have: Vec<&str> = flags.split_whitespace().collect();
    WANT.iter()
        .filter(|f| have.contains(f))
        .map(|f| f.to_string())
        .collect()
}

/// File system type of the mount holding `dir` (longest matching
/// mount point in `/proc/self/mounts`).
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, mnt, fs) = (it.next()?, it.next()?, it.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(n, _)| *n)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn env_or(key: &str, default: String) -> String {
    std::env::var(key).unwrap_or(default)
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    lio_obs::json_string(&mut out, s);
    out
}

/// The host and storage context as one JSON object.
pub fn context_json(workload: &str, seed: u64, traced: bool, os_dir: &Path) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let isa: Vec<String> = isa_flags(&cpuinfo).iter().map(|f| json_str(f)).collect();
    let defaults = QueueConfig::default();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{},\"nproc\":{nproc},\"ranks\":{},\
         \"cpu_model\":{},\"isa\":[{}],\"pack_kernel_mode\":{},\"os_dir\":{},\"os_fs\":{},\
         \"os_workers\":{},\"os_depth\":{},\"flush_policy\":{}}}",
        json_str(workload),
        u8::from(traced),
        crate::workload::NPROCS,
        json_str(&cpu_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        isa.join(","),
        json_str(lio_datatype::kernels::mode().name()),
        json_str(&os_dir.display().to_string()),
        json_str(&fs_type(os_dir)),
        json_str(&env_or("LIO_OS_WORKERS", defaults.workers.to_string())),
        json_str(&env_or("LIO_OS_DEPTH", defaults.depth.to_string())),
        json_str("page cache only: no sync or fsync anywhere in the run"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuinfo_fields_parse() {
        let info = "model name\t: Test CPU\nflags\t\t: fpu sse2 avx2 avx512f\n";
        assert_eq!(cpu_field(info, "model name").as_deref(), Some("Test CPU"));
        assert_eq!(isa_flags(info), ["sse2", "avx2", "avx512f"]);
    }

    #[test]
    fn context_is_json() {
        let ctx = context_json("w", 1, false, Path::new("."));
        lio_obs::json::validate(&ctx).unwrap();
    }
}
