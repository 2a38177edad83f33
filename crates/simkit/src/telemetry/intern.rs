//! Process-wide interning of telemetry names.
//!
//! One mutex-guarded table backs both event keys ([`Key`]) and the
//! counter names of [`Metrics`](crate::metrics::Metrics), which a `Key`
//! indexes too. Interning happens once per distinct name for the whole
//! process; after that, carrying a name around is a `u32` copy and
//! comparing two names is an integer compare.
//!
//! Event categories (`"htc"`, `"store"`, …) are interned too, into a
//! separate lock-free table of 256 entries, so an
//! [`Event`](super::Event) stores a `u16` instead of a 16-byte `&str` and
//! recording one takes no lock beyond the log's own.
//!
//! The numeric ids depend on interning *order*, which differs between
//! runs that touch names in different sequences (parallel sweeps, test
//! interleavings). They are therefore an implementation detail: anything
//! user-visible or digest-relevant resolves the name string instead.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// The name-interning table: names in insertion order plus a
/// borrowed-key index, so lookups of existing names never allocate.
struct NameTable {
    names: Vec<&'static str>,
    by_name: HashMap<&'static str, u32>,
}

impl NameTable {
    fn new() -> Self {
        NameTable {
            names: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Id of `name`, interning it on first sight. The borrow-first lookup
    /// means a hit costs one hash probe and zero allocations; only the
    /// first insertion of a name leaks one boxed copy of it.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        self.names.push(leaked);
        self.by_name.insert(leaked, id);
        id
    }

    /// Id of `name` if it has ever been interned (never grows the table).
    fn find(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The name behind an id.
    fn name(&self, id: u32) -> &'static str {
        self.names[id as usize]
    }
}

/// The key table, created holding the well-known vocabulary
/// ([`span::keys`](super::span::keys)) at the ids its constants carry.
fn key_table() -> &'static Mutex<NameTable> {
    static TABLE: OnceLock<Mutex<NameTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = NameTable::new();
        for (id, name) in super::span::keys::NAMES.iter().enumerate() {
            assert_eq!(table.intern(name), id as u32, "duplicate key {name:?}");
        }
        Mutex::new(table)
    })
}

/// An interned telemetry event name, e.g. `"job.submitted"`.
///
/// Keys are process-wide and case-sensitive (unlike ClassAd symbols).
/// Comparing keys is an integer compare; rendering resolves the name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(u32);

impl Key {
    /// The key at a fixed id of the well-known vocabulary, which the key
    /// table is created holding.
    pub(crate) const fn reserved(id: u32) -> Key {
        Key(id)
    }

    /// Intern a name (idempotent; cheap after the first call).
    pub fn intern(name: &str) -> Key {
        let mut tab = key_table().lock().expect("key table poisoned");
        Key(tab.intern(name))
    }

    /// The key's id, which indexes the counter bank of
    /// [`Metrics`](crate::metrics::Metrics).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Look up a name without interning it.
    pub fn find(name: &str) -> Option<Key> {
        let tab = key_table().lock().expect("key table poisoned");
        tab.find(name).map(Key)
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        let tab = key_table().lock().expect("key table poisoned");
        tab.name(self.0)
    }
}

/// Capacity of the category table. Categories are `&'static str`
/// component names, a vocabulary fixed when the program is compiled (a
/// dozen today), so a small fixed table never fills in practice.
pub(crate) const CATEGORY_SLOTS: usize = 256;

/// Category names in interning order. Each slot is written once; readers
/// need only the slot's atomic load, never a lock.
static CATEGORIES: [OnceLock<&'static str>; CATEGORY_SLOTS] =
    [const { OnceLock::new() }; CATEGORY_SLOTS];

/// Id of the category `name`, interning it on first sight.
///
/// Scans the slots in order and claims the first empty one. A thread only
/// moves past a slot once it holds a different name, so two threads
/// interning one new name meet at the same slot and never duplicate it.
///
/// # Panics
///
/// If more than [`CATEGORY_SLOTS`] distinct categories are interned.
pub(crate) fn intern_category(name: &'static str) -> u16 {
    for (id, slot) in CATEGORIES.iter().enumerate() {
        if *slot.get_or_init(|| name) == name {
            return id as u16;
        }
    }
    panic!("more than {CATEGORY_SLOTS} distinct telemetry categories");
}

/// The name behind a category id from [`intern_category`].
pub(crate) fn category_name(id: u16) -> &'static str {
    CATEGORIES[usize::from(id)]
        .get()
        .expect("category ids come from intern_category")
}

impl fmt::Debug for Key {
    // Show the name, not the interning-order-dependent id.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:?})", self.name())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_case_sensitive() {
        let a = Key::intern("telemetry.test.alpha");
        let b = Key::intern("telemetry.test.alpha");
        let c = Key::intern("telemetry.test.Alpha");
        assert_eq!(a, b);
        assert_ne!(a, c, "keys are case-sensitive");
        assert_eq!(a.name(), "telemetry.test.alpha");
        assert_eq!(c.name(), "telemetry.test.Alpha");
    }

    #[test]
    fn well_known_keys_are_their_names() {
        use super::super::span::keys;
        assert_eq!(keys::JOB_SUBMITTED.name(), "job.submitted");
        assert_eq!(keys::REPAIR_RELAUNCHED.name(), "repair.relaunched");
        for (id, name) in keys::NAMES.iter().enumerate() {
            assert_eq!(Key::intern(name), Key::reserved(id as u32));
        }
    }

    #[test]
    fn find_never_grows_the_table() {
        assert_eq!(Key::find("telemetry.test.never-interned"), None);
        let k = Key::intern("telemetry.test.beta");
        assert_eq!(Key::find("telemetry.test.beta"), Some(k));
    }

    #[test]
    fn categories_intern_once_by_content() {
        let a = intern_category("telemetry.test.cat");
        // An equal name at a different address maps to the same id.
        let copy: &'static str = Box::leak(String::from("telemetry.test.cat").into_boxed_str());
        assert_eq!(intern_category(copy), a);
        assert_ne!(intern_category("telemetry.test.Cat"), a);
        assert_eq!(category_name(a), "telemetry.test.cat");
    }

    #[test]
    fn concurrent_interning_of_one_new_category_agrees() {
        let barrier = std::sync::Barrier::new(4);
        let ids: Vec<u16> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        intern_category("telemetry.test.race")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning thread panicked"))
                .collect()
        });
        assert!(ids.iter().all(|&id| id == ids[0]), "{ids:?}");
        assert_eq!(category_name(ids[0]), "telemetry.test.race");
    }

    #[test]
    fn debug_and_display_show_the_name() {
        let k = Key::intern("telemetry.test.gamma");
        assert_eq!(format!("{k}"), "telemetry.test.gamma");
        assert_eq!(format!("{k:?}"), "Key(\"telemetry.test.gamma\")");
    }
}
