//! Datasets — the values that flow through Galaxy analyses.
//!
//! Unlike the simulation-only parts of cumulus, datasets carry **real
//! content**: a tool run in this Galaxy produces an actual table / text /
//! image artifact computed by real Rust code, while the *time* the run
//! takes is simulated. This split lets the test suite verify statistical
//! outputs (does the differential-expression tool recover the planted
//! genes?) independently of the performance model.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use cumulus_net::DataSize;
use cumulus_simkit::time::SimTime;
use cumulus_store::{ContentHasher, ContentId};

/// Identifier for a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u64);

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset-{}", self.0)
    }
}

/// Dataset lifecycle as shown in the history panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetState {
    /// Being produced (upload or tool run in flight).
    Pending,
    /// Ready for use.
    Ok,
    /// The producing job failed.
    Error,
    /// Removed by the user.
    Deleted,
}

/// What a dataset's content holds. A value of this type is only ever
/// read through a [`Content`] handle.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentBody {
    /// Free text.
    Text(String),
    /// A table: column names plus rows.
    Table {
        /// Column headers.
        columns: Vec<String>,
        /// Rows of cells.
        rows: Vec<Vec<String>>,
    },
    /// A plot, stored as SVG text.
    Svg(String),
    /// An archive of named members with sizes (CEL bundles, BAM sets).
    Archive {
        /// `(member name, bytes)` pairs.
        members: Vec<(String, u64)>,
    },
    /// A numeric matrix with row/column labels (expression data).
    Matrix {
        /// Row labels (probes/genes).
        row_names: Vec<String>,
        /// Column labels (samples).
        col_names: Vec<String>,
        /// Row-major values.
        values: Vec<f64>,
    },
    /// Content that exists remotely / was only transferred, not parsed.
    Opaque,
}

impl ContentBody {
    /// Approximate serialized size of the content, used when the dataset's
    /// declared size is not specified explicitly.
    pub fn natural_size(&self) -> DataSize {
        let bytes = match self {
            ContentBody::Text(s) => s.len() as u64,
            ContentBody::Svg(s) => s.len() as u64,
            ContentBody::Table { columns, rows } => {
                let header: usize = columns.iter().map(|c| c.len() + 1).sum();
                let body: usize = rows
                    .iter()
                    .map(|r| r.iter().map(|c| c.len() + 1).sum::<usize>())
                    .sum();
                (header + body) as u64
            }
            ContentBody::Archive { members } => members.iter().map(|(_, b)| *b).sum(),
            ContentBody::Matrix { values, .. } => (values.len() * 8) as u64,
            ContentBody::Opaque => 0,
        };
        DataSize::from_bytes(bytes)
    }

    /// Table rows, if tabular.
    pub fn as_table(&self) -> Option<(&[String], &[Vec<String>])> {
        match self {
            ContentBody::Table { columns, rows } => Some((columns, rows)),
            _ => None,
        }
    }

    /// The digest of the canonical serialization: discriminant byte,
    /// length-prefixed fields, floats by bit pattern.
    fn hash(&self) -> ContentId {
        let mut h = ContentHasher::new();
        match self {
            ContentBody::Text(s) => {
                h.write(&[0]);
                h.write_str(s);
            }
            ContentBody::Table { columns, rows } => {
                h.write(&[1]);
                h.write_u64(columns.len() as u64);
                for c in columns {
                    h.write_str(c);
                }
                h.write_u64(rows.len() as u64);
                for row in rows {
                    h.write_u64(row.len() as u64);
                    for cell in row {
                        h.write_str(cell);
                    }
                }
            }
            ContentBody::Svg(s) => {
                h.write(&[2]);
                h.write_str(s);
            }
            ContentBody::Archive { members } => {
                h.write(&[3]);
                h.write_u64(members.len() as u64);
                for (name, bytes) in members {
                    h.write_str(name);
                    h.write_u64(*bytes);
                }
            }
            ContentBody::Matrix {
                row_names,
                col_names,
                values,
            } => {
                h.write(&[4]);
                h.write_u64(row_names.len() as u64);
                for r in row_names {
                    h.write_str(r);
                }
                h.write_u64(col_names.len() as u64);
                for c in col_names {
                    h.write_str(c);
                }
                h.write_u64(values.len() as u64);
                for v in values {
                    h.write_f64(*v);
                }
            }
            ContentBody::Opaque => {
                h.write(&[5]);
            }
        }
        h.finish()
    }
}

/// The actual content of a dataset: an immutable value behind a shared
/// handle. Cloning a `Content` copies a pointer, so a public bundle pulled
/// into many histories, a memoized tool output filed into many datasets,
/// and the memo entry itself all hold one value. The body is reachable
/// only by shared reference ([`Deref`] or [`Content::body`]): new content
/// is a new handle, which is what lets the handle carry its content id.
///
/// ```compile_fail,E0596
/// use cumulus_galaxy::{Content, ContentBody};
/// let mut c = Content::new(ContentBody::Text("a".to_string()));
/// if let ContentBody::Text(s) = &mut *c {
///     s.push('b');
/// }
/// ```
#[derive(Clone)]
pub struct Content(Arc<Shared>);

struct Shared {
    body: ContentBody,
    /// The body's content id, hashed on first request.
    id: OnceLock<ContentId>,
}

impl Content {
    /// Wrap a body in a fresh handle.
    pub fn new(body: ContentBody) -> Content {
        Content(Arc::new(Shared {
            body,
            id: OnceLock::new(),
        }))
    }

    /// The body, for matching on its variant.
    pub fn body(&self) -> &ContentBody {
        &self.0.body
    }

    /// Whether two handles share one value, which then has the same bits.
    pub(crate) fn ptr_eq(a: &Content, b: &Content) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The content-addressed identity of this content: a digest over a
    /// canonical serialization (discriminant byte, length-prefixed
    /// fields, floats by bit pattern). Equal contents share an id no
    /// matter which history or upload produced them — the key the data
    /// plane's caches and object store deduplicate on. The value is
    /// immutable, so it is hashed at most once, by whichever of its
    /// clones asks first.
    ///
    /// [`ContentBody::Opaque`] carries no bytes, so all opaque contents
    /// share one id; callers with only-transferred data should fold in an
    /// external discriminator (see [`Dataset::content_id`]).
    pub fn content_id(&self) -> ContentId {
        *self.0.id.get_or_init(|| self.0.body.hash())
    }
}

impl Deref for Content {
    type Target = ContentBody;

    fn deref(&self) -> &ContentBody {
        self.body()
    }
}

/// Equal bodies, under the body's `PartialEq` (`-0.0 == 0.0`, `NaN` equal
/// to nothing), whether or not the handles are shared.
impl PartialEq for Content {
    fn eq(&self, other: &Content) -> bool {
        self.body() == other.body()
    }
}

impl std::fmt::Debug for Content {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.body().fmt(f)
    }
}

/// A dataset in a history.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Its id.
    pub id: DatasetId,
    /// Position within its history (Galaxy's `hid`).
    pub hid: u32,
    /// Display name, e.g. `fourCelFileSamples.zip`.
    pub name: String,
    /// Datatype extension (`zip`, `tabular`, `txt`, `svg`, `cel`, `bam`).
    pub dtype: String,
    /// Declared size.
    pub size: DataSize,
    /// Lifecycle state.
    pub state: DatasetState,
    /// The real content. Assigning a new handle replaces the value and
    /// its content id together.
    pub content: Content,
    /// When it was created.
    pub created_at: SimTime,
    /// The job that produced it (None for uploads).
    pub produced_by: Option<crate::job::GalaxyJobId>,
}

impl Dataset {
    /// The dataset's content id. Parsed contents hash their bytes via
    /// [`Content::content_id`]; [`ContentBody::Opaque`] contents
    /// (transferred, never parsed) fold in the declared size and name so
    /// two different uploads don't alias in the data plane's caches.
    pub fn content_id(&self) -> ContentId {
        match self.content.body() {
            ContentBody::Opaque => {
                let mut h = ContentHasher::new();
                h.write(&[5]);
                h.write_u64(self.size.as_bytes());
                h.write_str(&self.name);
                h.finish()
            }
            _ => self.content.content_id(),
        }
    }

    /// One-line history-panel entry.
    pub fn history_line(&self) -> String {
        let state = match self.state {
            DatasetState::Pending => "…",
            DatasetState::Ok => "ok",
            DatasetState::Error => "error",
            DatasetState::Deleted => "deleted",
        };
        format!(
            "{}: {} ({}, {}) [{}]",
            self.hid, self.name, self.dtype, self.size, state
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> Content {
        Content::new(ContentBody::Text(s.to_string()))
    }

    #[test]
    fn content_ids_key_on_content_not_provenance() {
        let a = text("hello");
        let b = text("hello");
        assert_eq!(a.content_id(), b.content_id());
        assert_ne!(a.content_id(), text("world").content_id());
        // Same serialized bytes under different variants must not alias.
        assert_ne!(
            text("x").content_id(),
            Content::new(ContentBody::Svg("x".into())).content_id()
        );
        let matrix = |v: f64| {
            Content::new(ContentBody::Matrix {
                row_names: vec!["g1".into()],
                col_names: vec!["s1".into()],
                values: vec![v],
            })
        };
        assert_ne!(matrix(1.5).content_id(), matrix(1.5000001).content_id());
    }

    #[test]
    fn clones_share_one_value_and_its_id() {
        let a = text("hello");
        let b = a.clone();
        assert!(Content::ptr_eq(&a, &b));
        assert!(!Content::ptr_eq(&a, &text("hello")));
        assert_eq!(b.content_id(), a.body().hash());
        drop(a);
        assert_eq!(b.content_id(), text("hello").content_id());
    }

    #[test]
    fn opaque_datasets_fold_in_size_and_name() {
        let mk = |name: &str, bytes: u64| Dataset {
            id: DatasetId(1),
            hid: 1,
            name: name.to_string(),
            dtype: "zip".to_string(),
            size: DataSize::from_bytes(bytes),
            state: DatasetState::Ok,
            content: Content::new(ContentBody::Opaque),
            created_at: SimTime::ZERO,
            produced_by: None,
        };
        assert_eq!(mk("a.zip", 10).content_id(), mk("a.zip", 10).content_id());
        assert_ne!(mk("a.zip", 10).content_id(), mk("a.zip", 11).content_id());
        assert_ne!(mk("a.zip", 10).content_id(), mk("b.zip", 10).content_id());
    }

    #[test]
    fn natural_sizes() {
        assert_eq!(text("hello").natural_size(), DataSize::from_bytes(5));
        let archive = ContentBody::Archive {
            members: vec![("a.cel".to_string(), 100), ("b.cel".to_string(), 200)],
        };
        assert_eq!(archive.natural_size(), DataSize::from_bytes(300));
        let m = ContentBody::Matrix {
            row_names: vec!["g1".to_string()],
            col_names: vec!["s1".to_string(), "s2".to_string()],
            values: vec![1.0, 2.0],
        };
        assert_eq!(m.natural_size(), DataSize::from_bytes(16));
        assert_eq!(ContentBody::Opaque.natural_size(), DataSize::ZERO);
    }

    #[test]
    fn table_accessor() {
        let t = Content::new(ContentBody::Table {
            columns: vec!["probe".to_string(), "p".to_string()],
            rows: vec![vec!["g1".to_string(), "0.01".to_string()]],
        });
        let (cols, rows) = t.as_table().unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(rows[0][1], "0.01");
        assert!(ContentBody::Opaque.as_table().is_none());
    }

    #[test]
    fn history_line_format() {
        let d = Dataset {
            id: DatasetId(1),
            hid: 3,
            name: "fourCelFileSamples.zip".to_string(),
            dtype: "zip".to_string(),
            size: DataSize::from_mb_f64(10.7),
            state: DatasetState::Ok,
            content: Content::new(ContentBody::Opaque),
            created_at: SimTime::ZERO,
            produced_by: None,
        };
        assert_eq!(
            d.history_line(),
            "3: fourCelFileSamples.zip (zip, 10.7MB) [ok]"
        );
    }
}
