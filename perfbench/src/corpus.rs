//! Seeded input generators. Every corpus is generated before any
//! timing starts; the program under test only ever sees the
//! partitions built from it.

use std::collections::BTreeMap;
use std::sync::Arc;

use dedupe_mr::er_datagen::duplicates::{perturb_title, rs_code, EditOps};
use dedupe_mr::er_datagen::rng::stream_rng;
use dedupe_mr::er_datagen::vocab::{block_prefix, PRODUCT_NOUNS, PRODUCT_QUALIFIERS};
use dedupe_mr::er_datagen::{ds1_spec, exponential_block_sizes, generate_products};
use dedupe_mr::prelude::*;

use crate::stats::SplitMix64;

/// Entities plus the generator's gold standard of true duplicates.
pub struct Corpus {
    pub entities: Vec<Ent>,
    pub gold: GoldStandard,
}

/// DS1-like products (`ds1_spec(seed)` scaled by `scale`): one
/// dominant title prefix over a flat Zipf tail, 5 % injected
/// duplicates.
pub fn ds1(seed: u64, scale: f64) -> Corpus {
    let dataset = generate_products(&ds1_spec(seed).scaled(scale));
    Corpus {
        entities: dataset.entities.into_iter().map(Arc::new).collect(),
        gold: dataset.gold,
    }
}

/// A skew-controlled corpus with injected near-duplicates: `n`
/// originals over `blocks` exponential(`skew`) prefix blocks, every
/// `dup_every`-th original cloned with at most 2 character
/// substitutions outside the 4-character protected prefix, so the
/// clone keeps its block and stays inside the matcher's and the 16×2
/// banding's catch zone. The same corpus `fig_lsh` studies.
pub fn skewed_duplicates(
    n: usize,
    blocks: usize,
    skew: f64,
    dup_every: usize,
    seed: u64,
) -> Corpus {
    let sizes = exponential_block_sizes(n, blocks, skew);
    let mut entities: Vec<Ent> = Vec::new();
    let mut gold_pairs: Vec<MatchPair> = Vec::new();
    let mut id = 0u64;
    let mut index = 0usize;
    for (k, &size) in sizes.iter().enumerate() {
        let prefix = block_prefix(k);
        for j in 0..size {
            let qualifier = PRODUCT_QUALIFIERS[(index * 7 + j) % PRODUCT_QUALIFIERS.len()];
            let noun = PRODUCT_NOUNS[(index * 3 + k) % PRODUCT_NOUNS.len()];
            let title = format!("{prefix} {qualifier} {noun} {}", rs_code(index));
            let original = Entity::new(id, [("title", title.as_str())]);
            id += 1;
            if index.is_multiple_of(dup_every) {
                let mut rng = stream_rng(seed, index as u64);
                let (dup_title, _) = perturb_title(&mut rng, &title, 2, 4, EditOps::SubstituteOnly);
                let duplicate = Entity::new(id, [("title", dup_title.as_str())]);
                id += 1;
                gold_pairs.push(MatchPair::new(
                    original.entity_ref(),
                    duplicate.entity_ref(),
                ));
                entities.push(Arc::new(duplicate));
            }
            entities.push(Arc::new(original));
            index += 1;
        }
    }
    Corpus {
        entities,
        gold: GoldStandard::from_pairs(gold_pairs),
    }
}

/// Splits a one-source corpus into sources `R` and `S` by a seeded
/// coin per entity (ids are kept), returning both sides and the
/// cross-source part of the gold standard.
pub fn split_sources(corpus: &Corpus, seed: u64) -> (Vec<Ent>, Vec<Ent>, GoldStandard) {
    let mut rng = SplitMix64::new(seed, 0x5253);
    let mut retagged: BTreeMap<EntityRef, EntityRef> = BTreeMap::new();
    let (mut r, mut s) = (Vec::new(), Vec::new());
    for entity in &corpus.entities {
        let source = if rng.below(2) == 0 {
            SourceId::R
        } else {
            SourceId::S
        };
        let copy = Arc::new(Entity::with_source(
            source,
            entity.id().0,
            entity.attributes(),
        ));
        retagged.insert(entity.entity_ref(), copy.entity_ref());
        if source == SourceId::R {
            r.push(copy);
        } else {
            s.push(copy);
        }
    }
    let cross = corpus.gold.iter().filter_map(|pair| {
        let (a, b) = (retagged[&pair.lo()], retagged[&pair.hi()]);
        (a.source != b.source).then(|| MatchPair::new(a, b))
    });
    let gold = GoldStandard::from_pairs(cross);
    (r, s, gold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_duplicates_are_seeded_and_sized() {
        let a = skewed_duplicates(600, 24, 1.0, 6, 1);
        let b = skewed_duplicates(600, 24, 1.0, 6, 1);
        assert_eq!(a.entities.len(), 700, "600 originals + every 6th cloned");
        assert_eq!(a.gold.len(), 100);
        assert_eq!(a.entities, b.entities);
        let c = skewed_duplicates(600, 24, 1.0, 6, 2);
        assert_ne!(a.entities, c.entities, "the seed drives the perturbation");
    }

    #[test]
    fn source_split_keeps_only_cross_source_gold() {
        let corpus = ds1(3, 0.005);
        let (r, s, gold) = split_sources(&corpus, 9);
        assert_eq!(r.len() + s.len(), corpus.entities.len());
        assert!(!r.is_empty() && !s.is_empty());
        assert!(r.iter().all(|e| e.source() == SourceId::R));
        assert!(s.iter().all(|e| e.source() == SourceId::S));
        assert!(gold.len() < corpus.gold.len());
        assert!(gold.iter().all(|p| p.lo().source != p.hi().source));
    }
}
