//! Fault-tolerant dump I/O: the [`DumpIo`] backend abstraction and the
//! atomic staging/rename commit protocol.
//!
//! A crash dump is written at the worst possible moment — the monitored
//! program, and plausibly the host, is failing — so the dump pipeline must
//! assume any individual filesystem operation can die mid-flight (power
//! loss, disk-full, a kill signal). This module makes that survivable:
//!
//! * [`DumpIo`] abstracts every filesystem operation the dump writers
//!   perform (create directory, write+fsync a file, fsync a directory,
//!   rename, remove, list). [`StdIo`] is the real backend; [`FaultIo`]
//!   wraps any backend and injects deterministic failures — fail the N-th
//!   operation with `ENOSPC`, a short write, an `EINTR`-style transient
//!   error, or a simulated hard kill after which no further operation
//!   (including cleanup) runs.
//! * [`commit_atomic`] writes the dump's files into a sibling
//!   `<dir>.staging-<nonce>` directory, fsyncs every file and the staging
//!   directory, renames the staging directory into place and fsyncs the
//!   parent. A dump directory therefore either exists complete or not at
//!   all — a reader can never observe a half-written dump. Transient
//!   errors get a bounded retry with backoff; permanent errors abort the
//!   commit, tear the staging directory back down (best effort) and
//!   surface as a typed [`IoFailure`] naming the operation and path.
//! * [`clean_orphaned_staging`] removes `<dir>.staging-*` leftovers that a
//!   hard kill mid-commit can strand, so crashed runs never accumulate
//!   litter. The dump call sites (the sim's auto-dump and `bugnet dump`)
//!   run it before every commit.
//!
//! The one non-atomic transition is overwriting an *existing* dump
//! directory: the old dump is removed after the staging directory is fully
//! durable and just before the rename. A crash in that window loses the old
//! dump but still never exposes a partial one.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bugnet_telemetry::Probe;

/// The filesystem operations a dump writer performs, for typed error
/// context ("which op died") and fault-injection targeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Creating a directory (and any missing parents).
    CreateDir,
    /// Creating a file, writing its full contents and fsyncing it.
    WriteFile,
    /// Fsyncing a directory so its entries are durable.
    SyncDir,
    /// Atomically renaming a path over another.
    Rename,
    /// Recursively removing a directory.
    RemoveDir,
    /// Listing a directory's entries.
    ListDir,
    /// Reading a file back (the load side; error context only).
    Read,
}

impl IoOp {
    /// The operation's short name: its `io`-category span name and the
    /// `{op}` of its `io_{op}_ns` histogram.
    fn name(self) -> &'static str {
        match self {
            IoOp::CreateDir => "create_dir",
            IoOp::WriteFile => "write",
            IoOp::SyncDir => "sync",
            IoOp::Rename => "rename",
            IoOp::RemoveDir => "remove",
            IoOp::ListDir => "list",
            IoOp::Read => "read",
        }
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A failed dump I/O operation: which op, on which path, and the underlying
/// error. Converted to `DumpError::Io` at the dump-format layer.
#[derive(Debug)]
pub struct IoFailure {
    /// The operation that failed.
    pub op: IoOp,
    /// The path it targeted.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for IoFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed on {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl Error for IoFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// The filesystem operations behind the dump writers, as a trait so tests
/// can substitute a deterministic fault-injecting backend for the real
/// filesystem. `Debug` is required so machines carrying a backend stay
/// debuggable.
pub trait DumpIo: fmt::Debug {
    /// Creates `path` and any missing parent directories.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()>;

    /// Creates (or truncates) `path`, writes `bytes` and fsyncs the file so
    /// its contents are durable before the commit rename.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the file may be partially written.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Fsyncs the directory at `path` so its entries (file creations,
    /// renames) are durable. A no-op on platforms without directory fsync.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn sync_dir(&mut self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Recursively removes the directory at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn remove_dir_all(&mut self, path: &Path) -> io::Result<()>;

    /// Lists the entries of the directory at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn list_dir(&mut self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// A [`DumpIo`] handle shareable across owners (the machine and its tests),
/// e.g. one fault plan observed by every dump attempt of a run.
pub type SharedDumpIo = Arc<Mutex<dyn DumpIo + Send>>;

/// A [`DumpIo`] middleware observing every operation through a [`Probe`]:
/// one `io`/`{op}` span per operation (feeding `io_{op}_ns`; writes carry
/// their byte count), an `io_error` instant per failure, bytes handed to
/// `write_file`, and error counts (transient `EINTR`-style errors the retry
/// loop absorbs vs permanent failures). Wraps a borrowed backend so the
/// dump writers can observe whatever backend the caller supplied —
/// including a fault-injecting one — without taking ownership. It never
/// changes the bytes that reach the backend.
#[derive(Debug)]
pub struct ProbedIo<'a> {
    inner: &'a mut dyn DumpIo,
    probe: Probe,
}

impl<'a> ProbedIo<'a> {
    /// Wraps `inner`, observing into `probe`.
    pub fn new(inner: &'a mut dyn DumpIo, probe: Probe) -> Self {
        ProbedIo { inner, probe }
    }

    fn observe<T>(
        &mut self,
        op: IoOp,
        bytes: Option<u64>,
        f: impl FnOnce(&mut dyn DumpIo) -> io::Result<T>,
    ) -> io::Result<T> {
        let start = self.probe.now();
        let result = f(self.inner);
        let probe = &mut self.probe;
        probe.span("io", op.name(), start, bytes.map(|b| ("bytes", b)));
        let (transient, failed) = match &result {
            Ok(_) => {
                probe.add("io_bytes_written_total", bytes.unwrap_or(0));
                (false, false)
            }
            Err(e) => {
                probe.instant("io", "io_error");
                let transient = e.kind() == io::ErrorKind::Interrupted;
                (transient, !transient)
            }
        };
        probe.add("io_transient_errors_total", u64::from(transient));
        probe.add("io_failures_total", u64::from(failed));
        result
    }
}

impl DumpIo for ProbedIo<'_> {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.observe(IoOp::CreateDir, None, |io| io.create_dir_all(path))
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let len = Some(bytes.len() as u64);
        self.observe(IoOp::WriteFile, len, |io| io.write_file(path, bytes))
    }

    fn sync_dir(&mut self, path: &Path) -> io::Result<()> {
        self.observe(IoOp::SyncDir, None, |io| io.sync_dir(path))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.observe(IoOp::Rename, None, |io| io.rename(from, to))
    }

    fn remove_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.observe(IoOp::RemoveDir, None, |io| io.remove_dir_all(path))
    }

    fn list_dir(&mut self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.observe(IoOp::ListDir, None, |io| io.list_dir(path))
    }
}

/// The real filesystem backend. Counts operations so tests can measure a
/// write sequence's length before sweeping failures over every index.
#[derive(Debug, Default)]
pub struct StdIo {
    ops: u64,
}

impl StdIo {
    /// A fresh backend with a zeroed operation counter.
    pub fn new() -> Self {
        StdIo::default()
    }

    /// Operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

impl DumpIo for StdIo {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.ops += 1;
        fs::create_dir_all(path)
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.ops += 1;
        let mut file = fs::File::create(path)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()
    }

    fn sync_dir(&mut self, path: &Path) -> io::Result<()> {
        self.ops += 1;
        // Directory fsync is how the rename and the file creations inside
        // become durable; platforms that cannot open directories skip it.
        #[cfg(unix)]
        {
            fs::File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.ops += 1;
        fs::rename(from, to)
    }

    fn remove_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.ops += 1;
        fs::remove_dir_all(path)
    }

    fn list_dir(&mut self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.ops += 1;
        let mut entries = Vec::new();
        for entry in fs::read_dir(path)? {
            entries.push(entry?.path());
        }
        Ok(entries)
    }
}

/// What a [`FaultIo`] injects at its designated operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails permanently with `ENOSPC` (disk full).
    Enospc,
    /// The operation (and the following `n - 1` operations) fail with an
    /// `EINTR`-style [`io::ErrorKind::Interrupted`] that a retry can clear.
    Transient(u32),
    /// A `write_file` persists only the first `n` bytes before failing with
    /// `ENOSPC`; other operation types at the index fail like
    /// [`FaultKind::Enospc`].
    ShortWrite(usize),
    /// The process "dies": a `write_file` at the index persists half its
    /// bytes, then this and every later operation — including any cleanup —
    /// fails. Models a power loss / SIGKILL mid-commit, so staged litter
    /// stays behind exactly as a real kill would leave it.
    HardKill,
}

/// Deterministic fault-injecting [`DumpIo`] wrapper: performs real I/O
/// through the inner backend until the plan's operation index, then injects
/// the planned failure.
#[derive(Debug)]
pub struct FaultIo<I> {
    inner: I,
    fail_at: u64,
    kind: FaultKind,
    ops: u64,
    killed: bool,
}

/// What [`FaultIo`] decides for one operation.
enum Verdict {
    Proceed,
    Fail(io::Error),
    /// `write_file` only: persist this many bytes, then fail.
    Short(usize, io::Error),
}

fn enospc() -> io::Error {
    // Raw ENOSPC so callers see exactly what a full disk produces.
    io::Error::from_raw_os_error(28)
}

fn interrupted() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient error")
}

fn killed() -> io::Error {
    io::Error::other("injected hard kill: process is gone")
}

impl<I: DumpIo> FaultIo<I> {
    /// Wraps `inner`, injecting `kind` at operation index `fail_at`
    /// (0-based over every [`DumpIo`] call made through this wrapper).
    pub fn new(inner: I, fail_at: u64, kind: FaultKind) -> Self {
        FaultIo {
            inner,
            fail_at,
            kind,
            ops: 0,
            killed: false,
        }
    }

    /// Operations attempted so far (including injected failures).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Whether the simulated hard kill has tripped.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> I {
        self.inner
    }

    fn verdict(&mut self) -> Verdict {
        let index = self.ops;
        self.ops += 1;
        if self.killed {
            return Verdict::Fail(killed());
        }
        match self.kind {
            FaultKind::Enospc if index == self.fail_at => Verdict::Fail(enospc()),
            FaultKind::Transient(n)
                if index >= self.fail_at && index - self.fail_at < u64::from(n) =>
            {
                Verdict::Fail(interrupted())
            }
            FaultKind::ShortWrite(keep) if index == self.fail_at => Verdict::Short(keep, enospc()),
            FaultKind::HardKill if index >= self.fail_at => {
                self.killed = true;
                // Half the payload survives the "kill" so salvage tests see
                // realistic mid-write truncation.
                Verdict::Short(usize::MAX, killed())
            }
            _ => Verdict::Proceed,
        }
    }
}

impl<I: DumpIo> DumpIo for FaultIo<I> {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        match self.verdict() {
            Verdict::Proceed => self.inner.create_dir_all(path),
            Verdict::Fail(e) | Verdict::Short(_, e) => Err(e),
        }
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.verdict() {
            Verdict::Proceed => self.inner.write_file(path, bytes),
            Verdict::Fail(e) => Err(e),
            Verdict::Short(keep, e) => {
                // Persist a prefix, then fail: the partial file is exactly
                // what a torn write leaves for fsck/salvage to chew on.
                let keep = if keep == usize::MAX {
                    bytes.len() / 2
                } else {
                    keep.min(bytes.len())
                };
                let _ = self.inner.write_file(path, &bytes[..keep]);
                Err(e)
            }
        }
    }

    fn sync_dir(&mut self, path: &Path) -> io::Result<()> {
        match self.verdict() {
            Verdict::Proceed => self.inner.sync_dir(path),
            Verdict::Fail(e) | Verdict::Short(_, e) => Err(e),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        match self.verdict() {
            Verdict::Proceed => self.inner.rename(from, to),
            Verdict::Fail(e) | Verdict::Short(_, e) => Err(e),
        }
    }

    fn remove_dir_all(&mut self, path: &Path) -> io::Result<()> {
        match self.verdict() {
            Verdict::Proceed => self.inner.remove_dir_all(path),
            Verdict::Fail(e) | Verdict::Short(_, e) => Err(e),
        }
    }

    fn list_dir(&mut self, path: &Path) -> io::Result<Vec<PathBuf>> {
        match self.verdict() {
            Verdict::Proceed => self.inner.list_dir(path),
            Verdict::Fail(e) | Verdict::Short(_, e) => Err(e),
        }
    }
}

/// Retries on `EINTR`-style transient errors with a short backoff; anything
/// else (success or a permanent error) returns immediately.
const TRANSIENT_RETRIES: u32 = 3;

fn with_retry<T>(mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt < TRANSIENT_RETRIES => {
                attempt += 1;
                std::thread::sleep(Duration::from_micros(u64::from(50 * attempt)));
            }
            other => return other,
        }
    }
}

/// Marker the staging directory name carries between the final directory
/// name and the nonce.
const STAGING_INFIX: &str = ".staging-";

/// Process-wide nonce counter so concurrent commits in one process never
/// collide on a staging name.
static STAGING_NONCE: AtomicU64 = AtomicU64::new(0);

/// The staging-name prefix (`<name>.staging-`) for a final dump directory,
/// or `None` when the path has no usable file name.
fn staging_prefix(final_dir: &Path) -> Option<String> {
    let name = final_dir.file_name()?.to_str()?;
    Some(format!("{name}{STAGING_INFIX}"))
}

/// The parent directory a dump commit operates in. An empty parent (a bare
/// relative name like `crash/`) means the current directory.
fn commit_parent(final_dir: &Path) -> PathBuf {
    match final_dir.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// A fresh staging sibling for `final_dir`:
/// `<parent>/<name>.staging-<pid>-<counter>`.
fn staging_sibling(final_dir: &Path) -> Option<PathBuf> {
    let prefix = staging_prefix(final_dir)?;
    let nonce = STAGING_NONCE.fetch_add(1, Ordering::Relaxed);
    let name = format!("{prefix}{:x}-{nonce:x}", std::process::id());
    Some(commit_parent(final_dir).join(name))
}

/// Removes orphaned `<dir>.staging-*` directories a crashed prior commit
/// left next to `final_dir`. Returns how many were removed. Failures on
/// individual orphans are skipped (another process may be racing us);
/// a missing parent directory counts as zero orphans.
///
/// # Errors
///
/// Returns an [`IoFailure`] only when listing the parent directory fails
/// for a reason other than it not existing.
pub fn clean_orphaned_staging(io: &mut dyn DumpIo, final_dir: &Path) -> Result<usize, IoFailure> {
    let Some(prefix) = staging_prefix(final_dir) else {
        return Ok(0);
    };
    let parent = commit_parent(final_dir);
    let entries = match with_retry(|| io.list_dir(&parent)) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => {
            return Err(IoFailure {
                op: IoOp::ListDir,
                path: parent,
                source: e,
            })
        }
    };
    let mut removed = 0;
    for entry in entries {
        let is_orphan = entry
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix));
        if is_orphan && with_retry(|| io.remove_dir_all(&entry)).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Atomically commits a dump directory: writes `files` (name, contents)
/// into a staging sibling of `final_dir`, fsyncs everything, then renames
/// the staging directory into place and fsyncs the parent. On any failure
/// the staging directory is torn down (best effort) and `final_dir` is
/// left untouched — except when it already existed, in which case it is
/// removed only after the staging copy is fully durable, immediately
/// before the rename.
///
/// `final_dir` is therefore never observable in a partial state: before
/// the rename it does not exist, after it it is complete. One error is
/// reported *after* the point of visibility: if the final parent-directory
/// fsync fails, the complete dump stays in place (deleting good crash data
/// over a durability doubt would be worse) and the error tells the caller
/// the rename may not survive a power loss.
///
/// Transient ([`io::ErrorKind::Interrupted`]) errors are retried a bounded
/// number of times with backoff before counting as failures.
///
/// # Errors
///
/// Returns a typed [`IoFailure`] naming the first operation that failed
/// permanently.
pub fn commit_atomic(
    io: &mut dyn DumpIo,
    final_dir: &Path,
    files: &[(String, Vec<u8>)],
) -> Result<(), IoFailure> {
    let Some(staging) = staging_sibling(final_dir) else {
        return Err(IoFailure {
            op: IoOp::CreateDir,
            path: final_dir.to_path_buf(),
            source: io::Error::new(
                io::ErrorKind::InvalidInput,
                "dump directory path has no usable final component",
            ),
        });
    };
    match commit_into(io, final_dir, &staging, files) {
        Ok(()) => Ok(()),
        Err(failure) => {
            // Best effort: a hard-killed backend cannot clean up, which is
            // precisely the orphan case `clean_orphaned_staging` exists for.
            let _ = io.remove_dir_all(&staging);
            Err(failure)
        }
    }
}

/// The commit body; every operation is retried on transient errors and
/// mapped to a typed [`IoFailure`] on permanent ones.
fn commit_into(
    io: &mut dyn DumpIo,
    final_dir: &Path,
    staging: &Path,
    files: &[(String, Vec<u8>)],
) -> Result<(), IoFailure> {
    fn fail<'p>(op: IoOp, path: &'p Path) -> impl Fn(io::Error) -> IoFailure + 'p {
        move |source| IoFailure {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
    with_retry(|| io.create_dir_all(staging)).map_err(fail(IoOp::CreateDir, staging))?;
    for (name, bytes) in files {
        let path = staging.join(name);
        with_retry(|| io.write_file(&path, bytes)).map_err(fail(IoOp::WriteFile, &path))?;
    }
    with_retry(|| io.sync_dir(staging)).map_err(fail(IoOp::SyncDir, staging))?;
    if final_dir.exists() {
        // Overwrite: the staging copy is durable, so dropping the old dump
        // now is the documented lose-old-keep-new window, never a partial.
        with_retry(|| io.remove_dir_all(final_dir)).map_err(fail(IoOp::RemoveDir, final_dir))?;
    }
    with_retry(|| io.rename(staging, final_dir)).map_err(fail(IoOp::Rename, staging))?;
    let parent = commit_parent(final_dir);
    with_retry(|| io.sync_dir(&parent)).map_err(fail(IoOp::SyncDir, &parent))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bugnet-io-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn files() -> Vec<(String, Vec<u8>)> {
        vec![
            ("manifest.bnd".to_string(), vec![1, 2, 3, 4]),
            ("thread-0.fll".to_string(), vec![5; 100]),
            ("thread-0.mrl".to_string(), vec![6; 40]),
        ]
    }

    /// Ops in a 3-file commit: create_dir + 3 writes + sync + rename + sync.
    const COMMIT_OPS: u64 = 7;

    #[test]
    fn commit_creates_the_final_directory_with_all_files() {
        let base = temp_dir("commit-ok");
        let out = base.join("crash");
        let mut io = StdIo::new();
        commit_atomic(&mut io, &out, &files()).unwrap();
        assert_eq!(io.ops(), COMMIT_OPS);
        for (name, bytes) in files() {
            assert_eq!(fs::read(out.join(name)).unwrap(), bytes);
        }
        // No staging litter after success.
        assert_eq!(orphans(&out), 0);
        fs::remove_dir_all(&base).unwrap();
    }

    fn orphans(final_dir: &Path) -> usize {
        let prefix = staging_prefix(final_dir).unwrap();
        fs::read_dir(commit_parent(final_dir))
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with(&prefix))
            })
            .count()
    }

    #[test]
    fn commit_overwrites_an_existing_dump() {
        let base = temp_dir("commit-overwrite");
        let out = base.join("crash");
        fs::create_dir_all(&out).unwrap();
        fs::write(out.join("stale.bin"), b"old").unwrap();
        commit_atomic(&mut StdIo::new(), &out, &files()).unwrap();
        assert!(!out.join("stale.bin").exists());
        assert!(out.join("manifest.bnd").exists());
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn every_permanent_failure_leaves_no_partial_directory() {
        let base = temp_dir("commit-enospc");
        for fail_at in 0..COMMIT_OPS {
            let out = base.join(format!("crash-{fail_at}"));
            let mut io = FaultIo::new(StdIo::new(), fail_at, FaultKind::Enospc);
            let err = commit_atomic(&mut io, &out, &files()).unwrap_err();
            assert_eq!(err.source.raw_os_error(), Some(28), "op {fail_at}: {err}");
            // The invariant: never a *partial* directory. Before the rename
            // the final directory must be absent; failing the post-rename
            // parent fsync (the last op) reports the durability error but
            // the complete dump stays — every file present and whole.
            if out.exists() {
                assert_eq!(err.op, IoOp::SyncDir, "op {fail_at}: partial dump visible");
                for (name, bytes) in files() {
                    assert_eq!(fs::read(out.join(name)).unwrap(), bytes, "op {fail_at}");
                }
            }
            assert_eq!(orphans(&out), 0, "op {fail_at}: staging litter left");
        }
        // Failing past the sequence end never fires.
        let out = base.join("crash-late");
        let mut io = FaultIo::new(StdIo::new(), COMMIT_OPS, FaultKind::Enospc);
        commit_atomic(&mut io, &out, &files()).unwrap();
        assert!(out.join("manifest.bnd").exists());
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let base = temp_dir("commit-transient");
        for fail_at in 0..COMMIT_OPS {
            let out = base.join(format!("crash-{fail_at}"));
            let mut io = FaultIo::new(
                StdIo::new(),
                fail_at,
                FaultKind::Transient(TRANSIENT_RETRIES),
            );
            commit_atomic(&mut io, &out, &files()).unwrap();
            assert!(out.join("manifest.bnd").exists(), "op {fail_at}");
        }
        // One transient failure more than the retry budget is permanent.
        let out = base.join("crash-exhausted");
        let mut io = FaultIo::new(StdIo::new(), 0, FaultKind::Transient(TRANSIENT_RETRIES + 1));
        let err = commit_atomic(&mut io, &out, &files()).unwrap_err();
        assert_eq!(err.source.kind(), io::ErrorKind::Interrupted);
        assert!(!out.exists());
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn short_writes_fail_without_a_visible_partial_dump() {
        let base = temp_dir("commit-short");
        let out = base.join("crash");
        // Op 2 is the thread-0.fll write; keep 10 of its 100 bytes.
        let mut io = FaultIo::new(StdIo::new(), 2, FaultKind::ShortWrite(10));
        let err = commit_atomic(&mut io, &out, &files()).unwrap_err();
        assert_eq!(err.op, IoOp::WriteFile);
        assert!(!out.exists());
        assert_eq!(orphans(&out), 0);
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn hard_kill_strands_staging_and_cleanup_removes_it() {
        let base = temp_dir("commit-kill");
        let out = base.join("crash");
        // Kill during the second file write: cleanup also "dies", so the
        // staging directory with its partial contents stays behind.
        let mut io = FaultIo::new(StdIo::new(), 2, FaultKind::HardKill);
        let err = commit_atomic(&mut io, &out, &files()).unwrap_err();
        assert!(io.is_killed());
        assert_eq!(err.op, IoOp::WriteFile);
        assert!(!out.exists());
        assert_eq!(orphans(&out), 1, "hard kill must strand the staging dir");
        // The staged manifest survived in full, the killed write partially.
        let staging = fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .contains(STAGING_INFIX)
            })
            .unwrap();
        assert_eq!(
            fs::read(staging.join("manifest.bnd")).unwrap(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(fs::read(staging.join("thread-0.fll")).unwrap().len(), 50);

        // A later run's orphan cleanup reclaims it.
        let removed = clean_orphaned_staging(&mut StdIo::new(), &out).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(orphans(&out), 0);
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn orphan_cleanup_ignores_unrelated_siblings() {
        let base = temp_dir("orphans");
        let out = base.join("crash");
        fs::create_dir_all(base.join("crash.staging-dead1")).unwrap();
        fs::create_dir_all(base.join("crash.staging-dead2")).unwrap();
        fs::create_dir_all(base.join("crash2.staging-alive")).unwrap();
        fs::create_dir_all(base.join("unrelated")).unwrap();
        let removed = clean_orphaned_staging(&mut StdIo::new(), &out).unwrap();
        assert_eq!(removed, 2);
        assert!(base.join("crash2.staging-alive").exists());
        assert!(base.join("unrelated").exists());
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn orphan_cleanup_of_a_missing_parent_is_zero() {
        let missing = std::env::temp_dir()
            .join(format!("bugnet-io-gone-{}", std::process::id()))
            .join("crash");
        assert_eq!(
            clean_orphaned_staging(&mut StdIo::new(), &missing).unwrap(),
            0
        );
    }

    #[test]
    fn failure_display_names_op_and_path() {
        let f = IoFailure {
            op: IoOp::Rename,
            path: PathBuf::from("/tmp/x"),
            source: enospc(),
        };
        let text = f.to_string();
        assert!(text.contains("rename"), "{text}");
        assert!(text.contains("/tmp/x"), "{text}");
    }
}
