//! The entity model.
//!
//! An [`Entity`] is an attributed record — a product offer, a
//! publication, a customer row. Entities carry a [`SourceId`] so the
//! same types serve both deduplication within one source `R` and
//! linkage across two sources `R` and `S` (the paper's Appendix I).

use std::fmt;
use std::sync::Arc;

/// Identifier of an entity, unique *within its source*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u64);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a data source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u8);

impl SourceId {
    /// The first (or only) source, `R` in the paper's notation.
    pub const R: SourceId = SourceId(0);
    /// The second source, `S` in the paper's notation.
    pub const S: SourceId = SourceId(1);
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "R"),
            1 => write!(f, "S"),
            n => write!(f, "src{n}"),
        }
    }
}

/// Why a per-partition source-tag vector does not fit its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceTagError {
    /// The tag count differs from the input partition count.
    Count {
        /// Tags given.
        tags: usize,
        /// Input partitions.
        partitions: usize,
    },
    /// A tag names neither `R` nor `S`.
    Unknown {
        /// The partition carrying the tag.
        partition: usize,
        /// The tag.
        tag: SourceId,
    },
}

impl fmt::Display for SourceTagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceTagError::Count { tags, partitions } => write!(
                f,
                "one source tag per input partition: {tags} tags for {partitions} partitions"
            ),
            SourceTagError::Unknown { partition, tag } => write!(
                f,
                "two-source matching knows only R and S: partition {partition} is tagged {tag}"
            ),
        }
    }
}

impl std::error::Error for SourceTagError {}

/// Checks that `tags` labels each of `partitions` input partitions as
/// `R` or `S` — the precondition of every two-source scenario.
pub fn check_source_tags(tags: &[SourceId], partitions: usize) -> Result<(), SourceTagError> {
    if tags.len() != partitions {
        return Err(SourceTagError::Count {
            tags: tags.len(),
            partitions,
        });
    }
    match tags
        .iter()
        .position(|&t| t != SourceId::R && t != SourceId::S)
    {
        Some(partition) => Err(SourceTagError::Unknown {
            partition,
            tag: tags[partition],
        }),
        None => Ok(()),
    }
}

/// A globally unique reference to an entity: `(source, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityRef {
    /// Which source the entity belongs to.
    pub source: SourceId,
    /// The entity id within that source.
    pub id: EntityId,
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.source, self.id)
    }
}

/// An attributed record.
///
/// Attribute storage is a small ordered vector — entities in ER
/// workloads have a handful of attributes, and a vector beats a map
/// both in memory and lookup time at that size. Attribute names are
/// interned per entity via `Arc<str>` so that replicating an entity to
/// multiple reduce tasks (BlockSplit sends split-block entities to `m`
/// tasks) clones cheaply.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Entity {
    id: EntityId,
    source: SourceId,
    attributes: Vec<(Arc<str>, Arc<str>)>,
}

impl Entity {
    /// Creates an entity in source [`SourceId::R`].
    pub fn new(
        id: u64,
        attributes: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> Self {
        Self::with_source(SourceId::R, id, attributes)
    }

    /// Creates an entity in an explicit source.
    pub fn with_source(
        source: SourceId,
        id: u64,
        attributes: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> Self {
        Self {
            id: EntityId(id),
            source,
            attributes: attributes
                .into_iter()
                .map(|(k, v)| (Arc::from(k.as_ref()), Arc::from(v.as_ref())))
                .collect(),
        }
    }

    /// The entity id within its source.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// The source this entity belongs to.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Global reference `(source, id)`.
    pub fn entity_ref(&self) -> EntityRef {
        EntityRef {
            source: self.source,
            id: self.id,
        }
    }

    /// Value of attribute `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v.as_ref())
    }

    /// Iterates `(name, value)` attribute pairs in insertion order.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attributes
            .iter()
            .map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// Number of attributes.
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Sets (or replaces) an attribute, returning `self` for chaining.
    pub fn with_attribute(mut self, name: &str, value: &str) -> Self {
        if let Some(slot) = self.attributes.iter_mut().find(|(k, _)| k.as_ref() == name) {
            slot.1 = Arc::from(value);
        } else {
            self.attributes.push((Arc::from(name), Arc::from(value)));
        }
        self
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.entity_ref())?;
        for (i, (k, v)) in self.attributes().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_tags_must_cover_every_partition_with_r_or_s() {
        assert_eq!(check_source_tags(&[SourceId::R, SourceId::S], 2), Ok(()));
        let count = check_source_tags(&[SourceId::R], 2).unwrap_err();
        assert_eq!(
            count,
            SourceTagError::Count {
                tags: 1,
                partitions: 2
            }
        );
        assert!(count
            .to_string()
            .contains("one source tag per input partition"));
        let unknown = check_source_tags(&[SourceId::R, SourceId(7)], 2).unwrap_err();
        assert_eq!(
            unknown,
            SourceTagError::Unknown {
                partition: 1,
                tag: SourceId(7)
            }
        );
        assert!(unknown.to_string().contains("src7"));
    }

    #[test]
    fn construction_and_lookup() {
        let e = Entity::new(7, [("title", "Canon EOS 5D"), ("brand", "Canon")]);
        assert_eq!(e.id(), EntityId(7));
        assert_eq!(e.source(), SourceId::R);
        assert_eq!(e.get("title"), Some("Canon EOS 5D"));
        assert_eq!(e.get("brand"), Some("Canon"));
        assert_eq!(e.get("price"), None);
        assert_eq!(e.attribute_count(), 2);
    }

    #[test]
    fn with_attribute_replaces_or_appends() {
        let e = Entity::new(1, [("title", "a")])
            .with_attribute("title", "b")
            .with_attribute("year", "2012");
        assert_eq!(e.get("title"), Some("b"));
        assert_eq!(e.get("year"), Some("2012"));
        assert_eq!(e.attribute_count(), 2);
    }

    #[test]
    fn entity_ref_orders_source_first() {
        let r = Entity::with_source(SourceId::R, 9, [("t", "x")]).entity_ref();
        let s = Entity::with_source(SourceId::S, 1, [("t", "x")]).entity_ref();
        assert!(r < s, "all of R sorts before all of S");
    }

    #[test]
    fn display_forms() {
        let e = Entity::with_source(SourceId::S, 3, [("title", "x")]);
        assert_eq!(e.entity_ref().to_string(), "S#3");
        assert_eq!(SourceId(4).to_string(), "src4");
        assert!(e.to_string().contains("title=\"x\""));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let e = Entity::new(1, [("title", "some fairly long product title here")]);
        let c = e.clone();
        assert_eq!(e, c);
        // Attribute storage is shared, not duplicated.
        let (_, v1) = &e.attributes[0];
        let (_, v2) = &c.attributes[0];
        assert!(Arc::ptr_eq(v1, v2));
    }
}
