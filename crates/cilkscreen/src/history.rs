//! The access history: Cilkscreen's ALL-SETS shadow memory, written once
//! and parameterised by the reachability oracle.
//!
//! Both detectors keep, per location, lists of (strand, lock-set, site)
//! access records and check each new access against them; they differ
//! only in how they answer "is that earlier strand logically parallel
//! with the one executing now?". The serial session asks SP-bags
//! ([`SpBags`], labels are [`ProcId`]s) during the depth-first serial
//! elision; the parallel session asks SP-order ([`SpLabel`]) under any
//! schedule. [`Reach`] asks it, and [`LocState::access`] is the whole
//! detection rule on top of it, shared by both sessions together with the
//! one [`RaceSink`].

use std::collections::HashMap;

use cilk_runtime::probe::{SpLabel, SpRel};

use crate::report::{Location, LockId, Race, RaceKind, Report};
use crate::spbags::{ProcId, SpBags};

/// A reachability oracle: two questions about an earlier access by strand
/// `prev` and the strand `cur` executing now.
pub(crate) trait Reach {
    /// How an access names its strand.
    type Label;
    /// Whether `prev` is logically parallel with `cur`.
    fn parallel(&mut self, prev: &Self::Label, cur: &Self::Label) -> bool;
    /// Whether `prev` precedes `cur` in the dag or is `cur` itself.
    fn precedes_or_equal(&mut self, prev: &Self::Label, cur: &Self::Label) -> bool;
}

/// SP-bags answers only about the strand executing now, which `cur`
/// always is. The serial elision visits every earlier access first, so an
/// earlier strand is either in a P-bag (parallel) or in an S-bag
/// (precedes or is the current strand).
impl Reach for SpBags {
    type Label = ProcId;
    fn parallel(&mut self, prev: &ProcId, _cur: &ProcId) -> bool {
        self.is_parallel_with_current(*prev)
    }
    fn precedes_or_equal(&mut self, prev: &ProcId, _cur: &ProcId) -> bool {
        !self.is_parallel_with_current(*prev)
    }
}

/// SP-order: English–Hebrew label pairs compared by [`SpLabel::relation`],
/// valid under any schedule. Under real parallelism an access observed
/// earlier can be logically *after* the current strand, so "not parallel"
/// does not imply "precedes or equal".
pub(crate) struct SpOrder;

impl Reach for SpOrder {
    type Label = SpLabel;
    fn parallel(&mut self, prev: &SpLabel, cur: &SpLabel) -> bool {
        prev.parallel_with(cur)
    }
    fn precedes_or_equal(&mut self, prev: &SpLabel, cur: &SpLabel) -> bool {
        matches!(prev.relation(cur), SpRel::Before | SpRel::Equal)
    }
}

/// A recorded access: which strand, holding which locks, labeled how.
///
/// `locks` is always sorted and deduplicated (a snapshot of the thread's
/// lock set, which keeps that invariant at insertion), so the subset and
/// disjointness tests run as linear merges and reports do not depend on
/// lock-acquisition order.
#[derive(Debug)]
struct Access<L> {
    label: L,
    locks: Vec<LockId>,
    site: Option<&'static str>,
}

/// The races one access found: the first racing writer and, for a write,
/// the first racing reader — one representative per kind suffices.
pub(crate) type Racers = [Option<(RaceKind, Option<&'static str>)>; 2];

/// Shadow state of one location, per the ALL-SETS discipline of Cheng
/// et al. [8]: *lists* of access records. A single writer/reader slot
/// (plain SP-bags) is unsound with locks — write{A}; write{A,B}; read{B}
/// misses the {A}-vs-{B} race — so each useful lock-set keeps its own
/// entry, pruned when a newer access *dominates* it.
#[derive(Debug)]
pub(crate) struct LocState<L> {
    writers: Vec<Access<L>>,
    readers: Vec<Access<L>>,
}

impl<L> Default for LocState<L> {
    fn default() -> Self {
        LocState { writers: Vec::new(), readers: Vec::new() }
    }
}

impl<L> LocState<L> {
    /// Checks one access by the strand labeled `label` — the one executing
    /// now — against the history, then records it. Parallel accesses race
    /// unless their lock-sets share a lock (§4).
    pub(crate) fn access<R: Reach<Label = L>>(
        &mut self,
        reach: &mut R,
        label: L,
        write: bool,
        locks: Vec<LockId>,
        site: Option<&'static str>,
    ) -> Racers {
        let mut racer = |entries: &[Access<L>]| {
            let found = entries
                .iter()
                .find(|e| reach.parallel(&e.label, &label) && locks_disjoint(&locks, &e.locks));
            found.map(|e| e.site)
        };
        let racers = if write {
            [
                racer(&self.writers).map(|s| (RaceKind::WriteWrite, s)),
                racer(&self.readers).map(|s| (RaceKind::ReadWrite, s)),
            ]
        } else {
            [racer(&self.writers).map(|s| (RaceKind::WriteRead, s)), None]
        };
        let entries = if write { &mut self.writers } else { &mut self.readers };
        insert_pruned(entries, reach, Access { label, locks, site });
        racers
    }
}

/// Appends `access` to `entries`, dropping the entries it dominates: those
/// whose strand precedes or is the current strand and whose lock-set is a
/// superset of the current one. Every future access that would race with
/// such an entry then races with the new one too.
fn insert_pruned<L>(
    entries: &mut Vec<Access<L>>,
    reach: &mut impl Reach<Label = L>,
    access: Access<L>,
) {
    entries.retain(|e| {
        let dominated = reach.precedes_or_equal(&e.label, &access.label);
        !(dominated && locks_subset(&access.locks, &e.locks))
    });
    entries.push(access);
}

/// Whether two sorted, deduplicated lock-sets share no lock: a linear
/// merge walk that stops at the first common element.
fn locks_disjoint(held: &[LockId], prev: &[LockId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < held.len() && j < prev.len() {
        match held[i].cmp(&prev[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Whether every lock in `sub` also appears in `sup` (both sorted and
/// deduplicated): a merge walk that stops at the first missing element.
fn locks_subset(sub: &[LockId], sup: &[LockId]) -> bool {
    let mut rest = sup.iter();
    sub.iter().all(|l| rest.by_ref().find(|s| *s >= l) == Some(l))
}

/// Where every race of a session lands: canonical form at insertion
/// (observation order is a schedule artifact, see `report::canonical`),
/// one entry per (location, kind) keeping the minimum site pair, so the
/// representative is a function of the dag and not of which access the
/// monitor happened to see first.
#[derive(Debug, Default)]
pub(crate) struct RaceSink {
    races: Vec<Race>,
    seen: HashMap<(Location, RaceKind), usize>,
}

impl RaceSink {
    /// Records the races the access at `site` found at `location`.
    pub(crate) fn push(&mut self, location: Location, racers: Racers, site: Option<&'static str>) {
        for (kind, first) in racers.into_iter().flatten() {
            let (kind, first_site, second_site) = crate::report::canonical(kind, first, site);
            let race = Race { location, kind, first_site, second_site };
            match self.seen.entry((location, kind)) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(self.races.len());
                    self.races.push(race);
                }
                std::collections::hash_map::Entry::Occupied(slot) => {
                    let existing = &mut self.races[*slot.get()];
                    if (first_site, second_site) < (existing.first_site, existing.second_site) {
                        *existing = race;
                    }
                }
            }
        }
    }

    /// The normalized report of every race pushed so far.
    pub(crate) fn to_report(&self, suppressed_views: u64) -> Report {
        let mut report = Report { races: self.races.clone(), suppressed_views };
        report.normalize();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cilk_runtime::probe;

    /// The four strands of one fork: `Pre` precedes the parallel pair
    /// `Child` and `Cont`, both of which precede `Post`. Declared in
    /// serial-elision order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Strand {
        Pre,
        Child,
        Cont,
        Post,
    }
    use Strand::*;

    /// One scripted access: strand, write?, held locks, site.
    type Step = (Strand, bool, &'static [u64], &'static str);

    const A: &[u64] = &[1];
    const B: &[u64] = &[2];
    const AB: &[u64] = &[1, 2];
    const NONE: &[u64] = &[];

    /// Scripted access sequences to one location, in the order a parallel
    /// monitor observes them, with the expected races as (kind, first,
    /// second) in canonical form.
    #[allow(clippy::type_complexity)]
    const TABLE: &[(&str, &[Step], &[(RaceKind, &str, &str)])] = &[
        (
            "ALL-SETS subset: write{A}; write{A,B}; read{B}",
            &[(Child, true, A, "wA"), (Cont, true, AB, "wAB"), (Cont, false, B, "rB")],
            &[(RaceKind::WriteRead, "wA", "rB")],
        ),
        ("common lock suppresses", &[(Child, true, A, "c"), (Cont, true, A, "k")], &[]),
        (
            "distinct locks still race",
            &[(Child, true, A, "c"), (Cont, true, B, "k")],
            &[(RaceKind::WriteWrite, "c", "k")],
        ),
        (
            "After entry survives a later Before access",
            &[(Cont, true, NONE, "k"), (Pre, true, NONE, "p"), (Child, true, NONE, "c")],
            &[(RaceKind::WriteWrite, "c", "k")],
        ),
        (
            "repeated same-strand writes",
            &[
                (Cont, true, NONE, "k"),
                (Cont, true, NONE, "k"),
                (Cont, true, NONE, "k"),
                (Child, false, NONE, "c"),
            ],
            &[(RaceKind::WriteRead, "k", "c")],
        ),
        ("sync orders", &[(Child, true, NONE, "c"), (Post, false, NONE, "q")], &[]),
    ];

    const LOC: Location = Location(0x10);

    fn locks(ids: &[u64]) -> Vec<LockId> {
        ids.iter().map(|&l| LockId(l)).collect()
    }

    fn expected(races: &[(RaceKind, &'static str, &'static str)]) -> Report {
        let race = |&(kind, a, b): &(RaceKind, &'static str, &'static str)| Race {
            location: LOC,
            kind,
            first_site: Some(a),
            second_site: Some(b),
        };
        let races = races.iter().map(race).collect();
        Report { races, suppressed_views: 0 }
    }

    /// SP-bags: the steps replayed in serial-elision order, driving the
    /// bags through spawn, return and sync as the strands require.
    fn under_sp_bags(steps: &[Step]) -> Report {
        let mut serial = steps.to_vec();
        serial.sort_by_key(|step| step.0);
        let (mut bags, mut at) = (SpBags::new(), Pre);
        let (mut loc, mut sink) = (LocState::default(), RaceSink::default());
        for (strand, write, held, site) in serial {
            while at < strand {
                match at {
                    Pre => {
                        bags.spawn_procedure();
                    }
                    Child => bags.return_procedure(),
                    Cont | Post => bags.sync(),
                }
                at = [Pre, Child, Cont, Post][at as usize + 1];
            }
            let current = bags.current_procedure();
            let racers = loc.access(&mut bags, current, write, locks(held), Some(site));
            sink.push(LOC, racers, Some(site));
        }
        sink.to_report(0)
    }

    /// The labels of the four strands, from a real labeled `join`.
    fn labels() -> [SpLabel; 4] {
        let label = || probe::current_sp_label().expect("labeled");
        probe::with_sp_root(|| {
            let pre = label();
            let (child, cont) = cilk_runtime::join(label, label);
            [pre, child, cont, label()]
        })
    }

    /// SP-order: the steps replayed in table (observation) order.
    fn under_sp_order(steps: &[Step]) -> Report {
        let labels = labels();
        let (mut loc, mut sink) = (LocState::default(), RaceSink::default());
        for &(strand, write, held, site) in steps {
            let current = labels[strand as usize].clone();
            let racers = loc.access(&mut SpOrder, current, write, locks(held), Some(site));
            sink.push(LOC, racers, Some(site));
        }
        sink.to_report(0)
    }

    #[test]
    fn both_oracles_give_the_tabled_verdicts() {
        for (name, steps, races) in TABLE {
            let want = expected(races);
            assert_eq!(under_sp_bags(steps), want, "SP-bags: {name}");
            assert_eq!(under_sp_order(steps), want, "SP-order: {name}");
        }
    }

    #[test]
    fn one_strand_keeps_one_entry_under_sp_order() {
        let current = labels()[Cont as usize].clone();
        let mut loc = LocState::default();
        for _ in 0..1_000 {
            loc.access(&mut SpOrder, current.clone(), true, Vec::new(), None);
        }
        assert_eq!((loc.writers.len(), loc.readers.len()), (1, 0));
    }

    #[test]
    fn lock_set_algebra() {
        assert!(locks_disjoint(&locks(A), &locks(B)));
        assert!(!locks_disjoint(&locks(AB), &locks(B)));
        assert!(locks_subset(&locks(B), &locks(AB)));
        assert!(locks_subset(&locks(NONE), &locks(A)));
        assert!(!locks_subset(&locks(AB), &locks(A)));
        assert!(!locks_subset(&locks(&[3]), &locks(AB)));
    }

    #[test]
    fn sink_dedups_to_canonical_min_site() {
        let mut sink = RaceSink::default();
        sink.push(LOC, [Some((RaceKind::WriteWrite, Some("z"))), None], Some("y"));
        sink.push(LOC, [Some((RaceKind::WriteWrite, Some("b"))), None], Some("a"));
        let report = sink.to_report(0);
        assert_eq!(report, expected(&[(RaceKind::WriteWrite, "a", "b")]));
    }
}
