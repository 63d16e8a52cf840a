//! Storage backends for the WAL.
//!
//! The log is written against a tiny flat-namespace storage abstraction
//! ([`WalStorage`]) rather than `std::fs` directly, so the same WAL code
//! runs on a real directory ([`FsStorage`]) and on a deterministic
//! in-memory store that injects crashes and torn writes at a chosen
//! byte offset ([`SimStorage`]) — the fault-injection surface the
//! recovery test suites are built on.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A flat namespace of append-only files.
///
/// Semantics the WAL relies on:
///
/// * [`append`](WalStorage::append) is durable on `Ok`: bytes that were
///   acknowledged survive a crash. On `Err`, an arbitrary *prefix* of
///   the requested bytes may have been persisted (a torn write) — the
///   WAL's framing is what makes such tails detectable.
/// * Files are never modified except by appending at the end,
///   truncating to a prefix, or removal.
/// * [`sub`](WalStorage::sub) opens a nested namespace (a
///   subdirectory), so one root can hold many independent logs.
pub trait WalStorage: Send + Sync {
    /// Opens a nested namespace under this one.
    ///
    /// # Errors
    ///
    /// Propagates backend errors (e.g. directory creation).
    fn sub(&self, name: &str) -> io::Result<Box<dyn WalStorage>>;

    /// Lists the file names in this namespace (no order guarantee).
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// Propagates backend errors; a missing file is an error.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Reads `len` bytes at `offset`. No caller in the program; kept
    /// because the benchmark crate's `TimedStorage` implements it,
    /// until that decorator goes. The default reads the whole file and
    /// slices; backends with positioned reads override it.
    ///
    /// # Errors
    ///
    /// Propagates backend errors; a range past the end of the file is
    /// [`io::ErrorKind::UnexpectedEof`].
    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let whole = self.read(name)?;
        let start = usize::try_from(offset)
            .ok()
            .filter(|s| s.checked_add(len).is_some_and(|end| end <= whole.len()))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("range {offset}+{len} past end of {name}"),
                )
            })?;
        Ok(whole[start..start + len].to_vec())
    }

    /// Appends `data` to a file, creating it if missing, and makes the
    /// bytes durable before returning `Ok`.
    ///
    /// # Errors
    ///
    /// On error, any prefix of `data` may have been persisted.
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// [`WalStorage::append`] without the durability guarantee: the
    /// bytes may sit in OS caches indefinitely and vanish on power
    /// loss. No caller in the program; kept because the benchmark
    /// crate's `TimedStorage` implements it, until that decorator goes.
    /// The default delegates to [`WalStorage::append`], so
    /// fault-injecting backends cover both paths with the same crash
    /// budget.
    ///
    /// # Errors
    ///
    /// See [`WalStorage::append`].
    fn append_nosync(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.append(name, data)
    }

    /// Truncates a file to `len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates backend errors; a missing file is an error.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Removes a file. Removing a missing file is not an error.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// An owned handle onto the same namespace. Handles share the
    /// backing state (directory / in-memory store), so a component
    /// that needs to keep storage around past a borrowed `&dyn
    /// WalStorage` — the replica log's resync path, for instance — can
    /// take one without threading ownership through every caller.
    fn clone_handle(&self) -> Box<dyn WalStorage>;
}

/// The real-filesystem backend: one directory per namespace.
///
/// Append handles are opened once per file and cached for the file's
/// lifetime — the WAL appends to one active segment at a time, so the
/// hot path pays a `write` + `sync_data` and nothing else: no
/// per-append `open`, no per-append path resolution, and a directory
/// fsync only when a file is created (segment rotation, snapshots) or
/// removed (compaction), never per append. Clones share the cache.
#[derive(Debug, Clone)]
pub struct FsStorage {
    dir: PathBuf,
    /// name → cached append handle (evicted on remove).
    handles: Arc<Mutex<BTreeMap<String, File>>>,
}

impl FsStorage {
    /// Opens (creating if needed) a directory-backed storage. A
    /// directory it creates is made durable like a file it creates: its
    /// parent is synced, so its entry survives power loss.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and sync errors.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        create_dirs(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
            handles: Arc::new(Mutex::new(BTreeMap::new())),
        })
    }

    fn sync_dir(&self) -> io::Result<()> {
        sync_dir(&self.dir)
    }

    /// The shared append body; `sync` chooses whether acknowledged
    /// bytes are made durable ([`WalStorage::append`]) or left to the
    /// page cache ([`WalStorage::append_nosync`]).
    fn append_impl(&self, name: &str, data: &[u8], sync: bool) -> io::Result<()> {
        use std::io::Write;
        let mut handles = self.handles.lock().expect("fs handle cache poisoned");
        let created;
        let file = match handles.entry(name.to_string()) {
            std::collections::btree_map::Entry::Occupied(e) => {
                created = false;
                e.into_mut()
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                // Cache miss: resolve and open once per file lifetime.
                // Opened readable too, so `read_range` shares the
                // handle instead of paying an open per point-read.
                let path = self.dir.join(name);
                created = !path.exists();
                v.insert(
                    std::fs::OpenOptions::new()
                        .read(true)
                        .create(true)
                        .append(true)
                        .open(path)?,
                )
            }
        };
        file.write_all(data)?;
        if sync {
            file.sync_data()?;
            if created {
                // The data is durable but the file's directory entry
                // may not be; acknowledged ⇒ durable requires both.
                self.sync_dir()?;
            }
        }
        Ok(())
    }
}

/// Makes `dir`'s entries durable. File data syncs are not enough on
/// their own: a newly created file or directory whose entry was never
/// fsynced can vanish wholesale on power loss, losing acknowledged
/// records.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        // Directories cannot be opened for syncing here; metadata
        // durability is best-effort on these platforms.
        let _ = dir;
        Ok(())
    }
}

/// Creates `dir` and its missing ancestors one at a time, outermost
/// first, syncing the parent of each directory it creates; syncs
/// nothing when `dir` already exists. As with `create_dir_all`, a path
/// that exists but is not a directory is an error.
fn create_dirs(dir: &Path) -> io::Result<()> {
    if dir.as_os_str().is_empty() || dir.is_dir() {
        return Ok(());
    }
    let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        create_dirs(parent)?;
    }
    match std::fs::create_dir(dir) {
        // A racing opener made it since the check; its entry may not be
        // durable yet either, so sync it all the same.
        Err(e) if e.kind() != io::ErrorKind::AlreadyExists || !dir.is_dir() => return Err(e),
        _ => {}
    }
    sync_dir(parent.unwrap_or(Path::new(".")))
}

impl WalStorage for FsStorage {
    fn sub(&self, name: &str) -> io::Result<Box<dyn WalStorage>> {
        Ok(Box::new(Self::new(self.dir.join(name))?))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.dir.join(name))
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        {
            // Positioned read through the cached handle: no open, no
            // seek, and no interference with the O_APPEND write
            // position.
            use std::os::unix::fs::FileExt;
            let mut handles = self.handles.lock().expect("fs handle cache poisoned");
            let file = match handles.entry(name.to_string()) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(v) => v.insert(
                    std::fs::OpenOptions::new()
                        .read(true)
                        .append(true)
                        .open(self.dir.join(name))?,
                ),
            };
            file.read_exact_at(&mut buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = File::open(self.dir.join(name))?;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut buf)?;
        }
        Ok(buf)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.append_impl(name, data, true)
    }

    fn append_nosync(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.append_impl(name, data, false)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(name))?;
        file.set_len(len)?;
        // The cached append handle (if any) stays valid: O_APPEND
        // positions every write at the new end.
        file.sync_data()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        // Evict first so a later append reopens (and re-creates) the
        // file instead of writing into an unlinked inode.
        self.handles
            .lock()
            .expect("fs handle cache poisoned")
            .remove(name);
        match std::fs::remove_file(self.dir.join(name)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
            Ok(()) => self.sync_dir(),
        }
    }

    fn clone_handle(&self) -> Box<dyn WalStorage> {
        Box::new(self.clone())
    }
}

/// Shared state of a [`SimStorage`] tree (all [`sub`](WalStorage::sub)
/// scopes of one root share it, including the crash budget).
#[derive(Debug)]
struct SimState {
    /// Fully-qualified name → contents.
    files: BTreeMap<String, Vec<u8>>,
    /// Total bytes acknowledged by `append` so far.
    written: u64,
    /// Crash once `written` would exceed this budget; the crossing
    /// append persists only its in-budget prefix (a torn write).
    crash_at: Option<u64>,
    crashed: bool,
    /// Transient-fault mode: appends fail cleanly (no bytes persisted)
    /// while set — an ENOSPC/EIO stand-in, unlike the permanent crash.
    failing: bool,
}

/// Deterministic in-memory storage with seeded crash injection.
///
/// A storage built with [`SimStorage::with_crash_after`]`(n)` behaves
/// normally until the `n`-th appended byte: the append that crosses the
/// budget persists only its first `n − written` bytes (a mid-record
/// torn write when the budget lands inside a frame) and fails, and
/// every subsequent write fails — the process-level view of a machine
/// losing power. Reads stay available so a test can inspect the wreck,
/// and [`SimStorage::surviving`] clones the persisted bytes into a
/// fresh, uncrashed storage: what a reboot would see.
///
/// Clones and [`sub`](WalStorage::sub) scopes share one crash budget,
/// so a single drawn byte offset crashes an entire multi-log service
/// atomically — which is exactly how the recovery property suites
/// drive it.
#[derive(Debug, Clone)]
pub struct SimStorage {
    inner: Arc<Mutex<SimState>>,
    prefix: String,
}

/// The error kind injected crashes surface as.
pub const CRASH_ERROR: &str = "injected crash";

fn crash_error() -> io::Error {
    io::Error::other(CRASH_ERROR)
}

impl SimStorage {
    /// A storage that never crashes.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A storage that crashes at the given total appended-byte offset.
    pub fn with_crash_after(bytes: u64) -> Self {
        Self::build(Some(bytes))
    }

    fn build(crash_at: Option<u64>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                written: 0,
                crash_at,
                crashed: false,
                failing: false,
            })),
            prefix: String::new(),
        }
    }

    /// Toggles transient-fault mode: while on, every append fails
    /// cleanly (no bytes persisted, no torn tail) — the storage is
    /// healthy again the moment it is switched off, unlike a crash.
    pub fn set_append_errors(&self, failing: bool) {
        self.lock().failing = failing;
    }

    /// Arms (or re-arms) the crash `bytes` appended bytes from *now* —
    /// so a test can run its setup on healthy storage and then place
    /// the crash at an exact offset inside an upcoming write, e.g.
    /// inside the `k`-th record of a batched flush, without probing
    /// the setup's byte count first.
    pub fn arm_crash_after(&self, bytes: u64) {
        let mut state = self.lock();
        state.crash_at = Some(state.written + bytes);
    }

    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.inner.lock().expect("sim storage lock poisoned")
    }

    fn key(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.prefix)
        }
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Total bytes acknowledged so far (the crash-budget clock).
    pub fn bytes_written(&self) -> u64 {
        self.lock().written
    }

    /// A fresh, uncrashed storage holding a deep copy of the persisted
    /// bytes — the state a reboot recovers from.
    pub fn surviving(&self) -> SimStorage {
        let state = self.lock();
        Self {
            inner: Arc::new(Mutex::new(SimState {
                files: state.files.clone(),
                written: 0,
                crash_at: None,
                crashed: false,
                failing: false,
            })),
            prefix: String::new(),
        }
    }
}

impl Default for SimStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl WalStorage for SimStorage {
    fn sub(&self, name: &str) -> io::Result<Box<dyn WalStorage>> {
        Ok(Box::new(Self {
            inner: Arc::clone(&self.inner),
            prefix: self.key(name),
        }))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let state = self.lock();
        let prefix = if self.prefix.is_empty() {
            String::new()
        } else {
            format!("{}/", self.prefix)
        };
        Ok(state
            .files
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.lock()
            .files
            .get(&self.key(name))
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {name}")))
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let key = self.key(name);
        let mut state = self.lock();
        if state.crashed {
            return Err(crash_error());
        }
        if state.failing {
            return Err(io::Error::other("injected transient fault"));
        }
        let budget = state.crash_at.map(|c| c.saturating_sub(state.written));
        match budget {
            Some(b) if (b as usize) < data.len() => {
                // The crossing write: persist the in-budget prefix
                // (possibly empty — or mid-record) and crash.
                state
                    .files
                    .entry(key)
                    .or_default()
                    .extend_from_slice(&data[..b as usize]);
                state.written += b;
                state.crashed = true;
                Err(crash_error())
            }
            _ => {
                state.files.entry(key).or_default().extend_from_slice(data);
                state.written += data.len() as u64;
                Ok(())
            }
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let key = self.key(name);
        let mut state = self.lock();
        if state.crashed {
            return Err(crash_error());
        }
        match state.files.get_mut(&key) {
            Some(contents) => {
                contents.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file {name}"),
            )),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let key = self.key(name);
        let mut state = self.lock();
        if state.crashed {
            return Err(crash_error());
        }
        state.files.remove(&key);
        Ok(())
    }

    fn clone_handle(&self) -> Box<dyn WalStorage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FsStorage::new` creates every missing directory of its path, and
    /// `sub` a missing child; an existing path opens again, and a path
    /// that is a file, or runs through one, is an error.
    #[test]
    fn new_creates_missing_directories_and_refuses_files() {
        let tmp = crate::TempDir::new("fs-dirs").unwrap();
        let abc = tmp.path().join("a/b/c");
        let storage = FsStorage::new(&abc).unwrap();
        assert!(abc.is_dir());
        storage.sub("term").unwrap();
        assert!(abc.join("term").is_dir());
        FsStorage::new(&abc).unwrap();
        FsStorage::new(tmp.path().join("a/d")).unwrap();
        assert!(tmp.path().join("a/d").is_dir());
        let file = tmp.path().join("a/file");
        std::fs::write(&file, b"").unwrap();
        assert!(FsStorage::new(&file).is_err());
        assert!(FsStorage::new(file.join("e")).is_err());
    }

    #[test]
    fn sim_storage_appends_and_scopes() {
        let root = SimStorage::new();
        root.append("a", b"one").unwrap();
        let scoped = root.sub("shard-0").unwrap();
        scoped.append("a", b"two").unwrap();
        assert_eq!(root.read("a").unwrap(), b"one");
        assert_eq!(scoped.read("a").unwrap(), b"two");
        assert_eq!(root.list().unwrap(), vec!["a".to_string()]);
        assert_eq!(scoped.list().unwrap(), vec!["a".to_string()]);
        assert_eq!(root.bytes_written(), 6);
    }

    #[test]
    fn crash_budget_tears_the_crossing_write() {
        let s = SimStorage::with_crash_after(5);
        s.append("f", b"abc").unwrap();
        // This write crosses the budget at byte 5: two bytes land.
        assert!(s.append("f", b"defg").is_err());
        assert!(s.crashed());
        assert_eq!(s.read("f").unwrap(), b"abcde");
        // Everything after the crash fails.
        assert!(s.append("g", b"x").is_err());
        assert!(s.remove("f").is_err());
        // ...but the surviving copy is a fresh, writable storage.
        let reborn = s.surviving();
        assert_eq!(reborn.read("f").unwrap(), b"abcde");
        reborn.append("f", b"!").unwrap();
        assert!(!reborn.crashed());
    }

    #[test]
    fn crash_budget_on_the_boundary_acknowledges_the_write() {
        let s = SimStorage::with_crash_after(3);
        s.append("f", b"abc").unwrap();
        assert!(!s.crashed());
        assert!(s.append("f", b"d").is_err());
        assert_eq!(s.read("f").unwrap(), b"abc");
    }

    #[test]
    fn read_range_is_exact_on_both_backends() {
        let tmp = crate::TempDir::new("fs-range").unwrap();
        let fs = FsStorage::new(tmp.path()).unwrap();
        let sim = SimStorage::new();
        for s in [&fs as &dyn WalStorage, &sim as &dyn WalStorage] {
            s.append("seg", b"0123456789").unwrap();
            assert_eq!(s.read_range("seg", 3, 4).unwrap(), b"3456");
            assert_eq!(s.read_range("seg", 0, 10).unwrap(), b"0123456789");
            assert_eq!(s.read_range("seg", 10, 0).unwrap(), b"");
            let past_end = s.read_range("seg", 8, 4).unwrap_err();
            assert_eq!(past_end.kind(), io::ErrorKind::UnexpectedEof);
            assert!(s.read_range("absent", 0, 1).is_err());
        }
    }

    #[test]
    fn nosync_appends_read_back_through_the_cached_handle() {
        // A write/read cycle on the fs backend: unsynced
        // appends land in the page cache, point-reads reuse the cached
        // handle (first read on a cold cache opens it), and a truncate
        // moves EOF for both.
        let tmp = crate::TempDir::new("fs-nosync").unwrap();
        let fs = FsStorage::new(tmp.path()).unwrap();
        fs.append_nosync("seg", b"0123456789").unwrap();
        assert_eq!(fs.read_range("seg", 2, 3).unwrap(), b"234");
        let fresh = FsStorage::new(tmp.path()).unwrap();
        assert_eq!(fresh.read_range("seg", 6, 4).unwrap(), b"6789");
        fs.truncate("seg", 4).unwrap();
        assert_eq!(fs.read_range("seg", 0, 4).unwrap(), b"0123");
        let cut = fs.read_range("seg", 2, 4).unwrap_err();
        assert_eq!(cut.kind(), io::ErrorKind::UnexpectedEof);
        // Appends through the shared handle stay at the (new) end.
        fs.append_nosync("seg", b"ab").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"0123ab");
    }

    #[test]
    fn fs_storage_round_trips() {
        let tmp = crate::TempDir::new("fs-storage").unwrap();
        let fs = FsStorage::new(tmp.path()).unwrap();
        fs.append("seg", b"hello ").unwrap();
        fs.append("seg", b"world").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"hello world");
        fs.truncate("seg", 5).unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"hello");
        let nested = fs.sub("inner").unwrap();
        nested.append("x", b"1").unwrap();
        assert_eq!(fs.list().unwrap(), vec!["seg".to_string()]);
        fs.remove("seg").unwrap();
        fs.remove("seg").unwrap(); // Idempotent.
        assert!(fs.list().unwrap().is_empty());
    }
}
