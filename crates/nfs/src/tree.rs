//! A simple path-addressed directory tree.
//!
//! The shared filesystem only needs metadata fidelity: which paths exist,
//! how big the files are, and who owns them. Contents are opaque tags that
//! higher layers (Galaxy datasets) use to locate their real in-memory
//! artifacts.

use std::collections::BTreeMap;

/// A node in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsNode {
    /// A directory with named children.
    Dir(BTreeMap<String, FsNode>),
    /// A file: size in bytes plus an opaque content tag.
    File {
        /// Size in bytes.
        size: u64,
        /// Opaque handle to the real content (dataset id, blob key, …).
        tag: String,
    },
}

/// Errors from tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component missing.
    NotFound(String),
    /// Expected a directory, found a file (or vice versa).
    NotADirectory(String),
    /// Expected a file, found a directory.
    IsADirectory(String),
    /// Refusing to overwrite an existing directory with a file.
    AlreadyExists(String),
    /// Paths must be absolute (`/`-rooted).
    InvalidPath(String),
    /// Writing the file would push total usage past the tree's quota.
    QuotaExceeded {
        /// Bytes the write needed.
        requested: u64,
        /// Bytes still free under the quota.
        available: u64,
    },
    /// Refusing to remove a non-empty directory non-recursively.
    NotEmpty(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such path: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::QuotaExceeded {
                requested,
                available,
            } => write!(f, "quota exceeded: need {requested} B, {available} B free"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

fn split(path: &str) -> Result<Vec<&str>, FsError> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(path.to_string()));
    }
    Ok(path.split('/').filter(|c| !c.is_empty()).collect())
}

/// The children of directory `name` under `dir`, created empty if
/// missing (the only case that allocates the name); `None` when `name`
/// is a file.
fn child_dir<'a>(
    dir: &'a mut BTreeMap<String, FsNode>,
    name: &str,
) -> Option<&'a mut BTreeMap<String, FsNode>> {
    if !dir.contains_key(name) {
        dir.insert(name.to_string(), FsNode::Dir(BTreeMap::new()));
    }
    match dir.get_mut(name) {
        Some(FsNode::Dir(children)) => Some(children),
        _ => None,
    }
}

/// The tree root plus operations.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    root: BTreeMap<String, FsNode>,
    quota: Option<u64>,
}

impl Tree {
    /// An empty tree.
    pub fn new() -> Self {
        Tree::default()
    }

    /// Cap total usage at `bytes` (`None` removes the cap). The cap only
    /// gates future writes; an already-over-quota tree is left alone.
    pub fn set_quota(&mut self, bytes: Option<u64>) {
        self.quota = bytes;
    }

    /// The configured quota, if any.
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// Create a directory and any missing parents.
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), FsError> {
        let parts = split(path)?;
        let mut cur = &mut self.root;
        for (i, part) in parts.iter().enumerate() {
            match child_dir(cur, part) {
                Some(children) => cur = children,
                None => return Err(FsError::NotADirectory(parts[..=i].join("/"))),
            }
        }
        Ok(())
    }

    /// Write (create or replace) a file, creating parent directories.
    /// With a quota set, the write is rejected when usage (net of the
    /// file it replaces) would exceed it.
    pub fn write_file(&mut self, path: &str, size: u64, tag: &str) -> Result<(), FsError> {
        if let Some(quota) = self.quota {
            let replaced = self.file_size(path).unwrap_or(0);
            let used = self.disk_usage("/").expect("root always exists") - replaced;
            if used + size > quota {
                return Err(FsError::QuotaExceeded {
                    requested: size,
                    available: quota.saturating_sub(used),
                });
            }
        }
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath(path.to_string()));
        }
        // Walk the components in place: every one but the last is a
        // directory, created if missing.
        let mut parts = path.split('/').filter(|c| !c.is_empty()).peekable();
        let mut cur = &mut self.root;
        let name = loop {
            let Some(part) = parts.next() else {
                return Err(FsError::InvalidPath(path.to_string()));
            };
            if parts.peek().is_none() {
                break part;
            }
            match child_dir(cur, part) {
                Some(children) => cur = children,
                None => return Err(FsError::NotADirectory(part.to_string())),
            }
        };
        match cur.get(name) {
            Some(FsNode::Dir(_)) => Err(FsError::AlreadyExists(path.to_string())),
            _ => {
                cur.insert(
                    name.to_string(),
                    FsNode::File {
                        size,
                        tag: tag.to_string(),
                    },
                );
                Ok(())
            }
        }
    }

    fn lookup(&self, path: &str) -> Result<&FsNode, FsError> {
        let parts = split(path)?;
        let mut cur = &self.root;
        let mut node: Option<&FsNode> = None;
        for part in &parts {
            match cur.get(*part) {
                None => return Err(FsError::NotFound(path.to_string())),
                Some(n) => {
                    node = Some(n);
                    match n {
                        FsNode::Dir(children) => cur = children,
                        FsNode::File { .. } => {
                            // A file must be the last component.
                            if part != parts.last().unwrap() {
                                return Err(FsError::NotADirectory(part.to_string()));
                            }
                        }
                    }
                }
            }
        }
        node.ok_or_else(|| FsError::InvalidPath(path.to_string()))
    }

    /// Does a path exist?
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// File size; error if missing or a directory.
    pub fn file_size(&self, path: &str) -> Result<u64, FsError> {
        match self.lookup(path)? {
            FsNode::File { size, .. } => Ok(*size),
            FsNode::Dir(_) => Err(FsError::IsADirectory(path.to_string())),
        }
    }

    /// File content tag; error if missing or a directory.
    pub fn file_tag(&self, path: &str) -> Result<&str, FsError> {
        match self.lookup(path)? {
            FsNode::File { tag, .. } => Ok(tag),
            FsNode::Dir(_) => Err(FsError::IsADirectory(path.to_string())),
        }
    }

    /// Names of a directory's immediate children.
    pub fn list(&self, path: &str) -> Result<Vec<String>, FsError> {
        if path == "/" {
            return Ok(self.root.keys().cloned().collect());
        }
        match self.lookup(path)? {
            FsNode::Dir(children) => Ok(children.keys().cloned().collect()),
            FsNode::File { .. } => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// Remove a file or (recursively) a directory.
    pub fn remove(&mut self, path: &str) -> Result<(), FsError> {
        let parts = split(path)?;
        let Some((name, dirs)) = parts.split_last() else {
            return Err(FsError::InvalidPath(path.to_string()));
        };
        let mut cur = &mut self.root;
        for part in dirs {
            match cur.get_mut(*part) {
                Some(FsNode::Dir(children)) => cur = children,
                Some(FsNode::File { .. }) => return Err(FsError::NotADirectory(part.to_string())),
                None => return Err(FsError::NotFound(path.to_string())),
            }
        }
        cur.remove(*name)
            .map(|_| ())
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// Remove an *empty* directory (`rmdir`). Errors on files and on
    /// directories that still have children.
    pub fn remove_dir(&mut self, path: &str) -> Result<(), FsError> {
        match self.lookup(path)? {
            FsNode::File { .. } => return Err(FsError::NotADirectory(path.to_string())),
            FsNode::Dir(children) => {
                if !children.is_empty() {
                    return Err(FsError::NotEmpty(path.to_string()));
                }
            }
        }
        self.remove(path)
    }

    /// Total bytes under a path (a file's own size, or a directory's
    /// recursive sum).
    pub fn disk_usage(&self, path: &str) -> Result<u64, FsError> {
        fn du(node: &FsNode) -> u64 {
            match node {
                FsNode::File { size, .. } => *size,
                FsNode::Dir(children) => children.values().map(du).sum(),
            }
        }
        if path == "/" {
            return Ok(self.root.values().map(du).sum());
        }
        Ok(du(self.lookup(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkdir_p_creates_parents() {
        let mut t = Tree::new();
        t.mkdir_p("/nfs/home/user1").unwrap();
        assert!(t.exists("/nfs"));
        assert!(t.exists("/nfs/home/user1"));
        assert_eq!(t.list("/nfs").unwrap(), vec!["home"]);
    }

    #[test]
    fn write_and_stat_files() {
        let mut t = Tree::new();
        t.write_file("/data/a.zip", 10_700_000, "ds-1").unwrap();
        assert_eq!(t.file_size("/data/a.zip").unwrap(), 10_700_000);
        assert_eq!(t.file_tag("/data/a.zip").unwrap(), "ds-1");
        // Overwrite updates size.
        t.write_file("/data/a.zip", 5, "ds-2").unwrap();
        assert_eq!(t.file_size("/data/a.zip").unwrap(), 5);
    }

    #[test]
    fn relative_paths_rejected() {
        let mut t = Tree::new();
        assert!(matches!(t.mkdir_p("x/y"), Err(FsError::InvalidPath(_))));
        assert!(matches!(
            t.write_file("x.txt", 1, "t"),
            Err(FsError::InvalidPath(_))
        ));
        for root in ["/", "//"] {
            assert_eq!(
                t.write_file(root, 1, "t"),
                Err(FsError::InvalidPath(root.to_string()))
            );
        }
    }

    #[test]
    fn file_dir_conflicts_error() {
        let mut t = Tree::new();
        t.write_file("/a/file", 1, "t").unwrap();
        assert!(matches!(
            t.mkdir_p("/a/file/sub"),
            Err(FsError::NotADirectory(_))
        ));
        t.mkdir_p("/a/dir").unwrap();
        assert!(matches!(
            t.write_file("/a/dir", 1, "t"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            t.file_size("/a/dir"),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(t.list("/a/file"), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn walks_through_existing_dirs_and_name_a_blocking_file() {
        let mut t = Tree::new();
        t.write_file("/a/b/file", 1, "t").unwrap();
        t.mkdir_p("/a/b/dir/deep").unwrap();
        t.write_file("/a/b/dir/deep/f", 2, "u").unwrap();
        assert_eq!(t.list("/a/b").unwrap(), vec!["dir", "file"]);
        assert_eq!(t.file_size("/a/b/file").unwrap(), 1);
        assert_eq!(
            t.mkdir_p("/a/b/file/sub"),
            Err(FsError::NotADirectory("a/b/file".to_string()))
        );
        assert_eq!(
            t.write_file("/a/b/file/sub/x", 1, "t"),
            Err(FsError::NotADirectory("file".to_string()))
        );
        assert_eq!(t.disk_usage("/").unwrap(), 3);
    }

    #[test]
    fn remove_files_and_dirs() {
        let mut t = Tree::new();
        t.write_file("/a/b/c.txt", 3, "t").unwrap();
        t.remove("/a/b/c.txt").unwrap();
        assert!(!t.exists("/a/b/c.txt"));
        assert!(t.exists("/a/b"));
        t.remove("/a").unwrap();
        assert!(!t.exists("/a"));
        assert!(matches!(t.remove("/a"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn disk_usage_sums_recursively() {
        let mut t = Tree::new();
        t.write_file("/d/x", 10, "a").unwrap();
        t.write_file("/d/sub/y", 20, "b").unwrap();
        t.write_file("/other", 5, "c").unwrap();
        assert_eq!(t.disk_usage("/d").unwrap(), 30);
        assert_eq!(t.disk_usage("/").unwrap(), 35);
        assert_eq!(t.disk_usage("/d/x").unwrap(), 10);
    }

    #[test]
    fn quota_gates_writes_net_of_replacement() {
        let mut t = Tree::new();
        t.set_quota(Some(100));
        t.write_file("/a", 60, "t").unwrap();
        let err = t.write_file("/b", 50, "t").unwrap_err();
        assert!(matches!(
            err,
            FsError::QuotaExceeded {
                requested: 50,
                available: 40
            }
        ));
        // Replacing /a only charges the delta.
        t.write_file("/a", 100, "t2").unwrap();
        assert_eq!(t.disk_usage("/").unwrap(), 100);
        // Lifting the quota unblocks.
        t.set_quota(None);
        t.write_file("/b", 50, "t").unwrap();
    }

    #[test]
    fn remove_dir_refuses_nonempty_and_files() {
        let mut t = Tree::new();
        t.write_file("/d/x", 1, "t").unwrap();
        assert!(matches!(t.remove_dir("/d"), Err(FsError::NotEmpty(_))));
        assert!(matches!(
            t.remove_dir("/d/x"),
            Err(FsError::NotADirectory(_))
        ));
        t.remove("/d/x").unwrap();
        t.remove_dir("/d").unwrap();
        assert!(!t.exists("/d"));
        assert!(matches!(t.remove_dir("/d"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn list_root() {
        let mut t = Tree::new();
        t.mkdir_p("/nfs").unwrap();
        t.write_file("/top.txt", 1, "t").unwrap();
        assert_eq!(t.list("/").unwrap(), vec!["nfs", "top.txt"]);
    }
}
