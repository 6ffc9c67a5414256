//! The work-counter schema: each counter is declared once, and every consumer iterates
//! the declaration instead of spelling the fields out again.
//!
//! [`counters!`](crate::counters) declares a struct of named counters, each a `usize`
//! count or a [`Duration`], and generates by-name iteration (`counters`,
//! `counters_mut`), field-wise `+=` and `Sum`, and a field-wise saturating `-`. The
//! checker's per-method delta, run summaries, the daemon wire and `table1` all go
//! through those, so a new counter is one line in its declaration. [`CheckStats`] is
//! declared here; `hat-engine` declares its `CacheStatsSnapshot` with the same macro.

use std::ops::AddAssign;
use std::time::Duration;

/// One counter's value, as seen through by-name iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// A number of events.
    Count(usize),
    /// Accumulated time.
    Time(Duration),
}

/// Mutable access to one counter, as handed out by by-name iteration.
#[derive(Debug)]
pub enum CounterMut<'a> {
    /// A number of events.
    Count(&'a mut usize),
    /// Accumulated time.
    Time(&'a mut Duration),
}

/// The types a counter may have.
pub trait CounterField: Copy + Default + AddAssign {
    /// The value, tagged with its type.
    fn get(&self) -> Counter;
    /// Mutable access, tagged with its type.
    fn get_mut(&mut self) -> CounterMut<'_>;
    /// `self - rhs`, clamped at zero.
    fn saturating_sub(self, rhs: Self) -> Self;
}

impl CounterField for usize {
    fn get(&self) -> Counter {
        Counter::Count(*self)
    }

    fn get_mut(&mut self) -> CounterMut<'_> {
        CounterMut::Count(self)
    }

    fn saturating_sub(self, rhs: Self) -> Self {
        usize::saturating_sub(self, rhs)
    }
}

impl CounterField for Duration {
    fn get(&self) -> Counter {
        Counter::Time(*self)
    }

    fn get_mut(&mut self) -> CounterMut<'_> {
        CounterMut::Time(self)
    }

    fn saturating_sub(self, rhs: Self) -> Self {
        Duration::saturating_sub(self, rhs)
    }
}

/// Declares a struct of work counters: one `name: type` line per counter, with its
/// doc comment, where the type is `usize` or [`Duration`].
///
/// ```
/// hat_sfa::counters! {
///     /// Two counters.
///     pub struct Demo {
///         /// Things done.
///         done: usize,
///         /// Time spent doing them.
///         spent: std::time::Duration,
///     }
/// }
/// let mut total = Demo { done: 2, ..Demo::default() };
/// total += Demo { done: 3, ..Demo::default() };
/// assert_eq!(total.done, 5);
/// assert_eq!((Demo::default() - total).done, 0, "subtraction saturates");
/// assert_eq!(Demo::NAMES, ["done", "spent"]);
/// assert_eq!(total.counters().next(), Some(("done", hat_sfa::Counter::Count(5))));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $( $(#[$field_attr:meta])* $field:ident: $ty:ty, )+
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$field_attr])* pub $field: $ty, )+
        }

        impl $name {
            /// Every counter's name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),+];

            /// Every counter with its name, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, $crate::Counter)> {
                Self::NAMES
                    .iter()
                    .copied()
                    .zip([$($crate::CounterField::get(&self.$field)),+])
            }

            /// Mutable access to every counter with its name, in declaration order.
            pub fn counters_mut(
                &mut self,
            ) -> impl Iterator<Item = (&'static str, $crate::CounterMut<'_>)> {
                Self::NAMES
                    .iter()
                    .copied()
                    .zip([$($crate::CounterField::get_mut(&mut self.$field)),+])
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                $( self.$field += rhs.$field; )+
            }
        }

        /// Field-wise difference, clamped at zero: the counters accrued between two
        /// readings, which never underflows when another reader moved one of them.
        impl ::std::ops::Sub for $name {
            type Output = Self;

            fn sub(self, rhs: Self) -> Self {
                $name {
                    $( $field: $crate::CounterField::saturating_sub(self.$field, rhs.$field), )+
                }
            }
        }

        impl ::std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |mut total, s| {
                    total += s;
                    total
                })
            }
        }
    };
}

// Adding a counter: add its `name: type` line with a doc comment below and increment it
// where the work happens; the wire, run summaries, `table1` and the corpus golden iterate.
counters! {
    /// Work counters of the per-method columns of Tables 1/3/4. A method report holds
    /// one method's counters; an [`InclusionChecker`](crate::InclusionChecker) keeps
    /// the running totals of the counters its checks own (the oracle readings
    /// `sat_queries`, `sat_time`, `theory_checks`, `cache_hits`, `cache_misses` and
    /// `shared_tier_locks`, and `total_time` and `assumed_preconditions`, are filled in
    /// by the type checker).
    pub struct CheckStats {
        /// Number of SMT queries (`#SAT`).
        sat_queries: usize,
        /// Time spent in the SMT solver (`t_SAT`).
        sat_time: Duration,
        /// Number of finite-automaton inclusion checks (`#FA⊆` / `#Inc`).
        fa_inclusions: usize,
        /// Time spent constructing and comparing FAs (`t_FA⊆`), excluding solver time.
        /// An inclusion checker's running total includes its solver time; the method
        /// report nets the method's `sat_time` out.
        fa_time: Duration,
        /// Total verification time for the method.
        total_time: Duration,
        /// Number of operator preconditions that had to be assumed because abduction
        /// could not discharge them (0 for a faithful verification run).
        assumed_preconditions: usize,
        /// Number of SMT queries answered from a shared result cache (0 without a
        /// caching oracle; see the `hat-engine` crate).
        cache_hits: usize,
        /// Number of SMT queries that reached the underlying decision procedure.
        cache_misses: usize,
        /// Number of satisfiable minterms constructed.
        minterms: usize,
        /// Number of incremental scoped-session checks issued during minterm
        /// enumeration (0 with naive enumeration, whose work is visible in
        /// `sat_queries` instead).
        enum_queries: usize,
        /// Number of unsatisfiable enumeration branches abandoned (pruned subtrees).
        pruned_subtrees: usize,
        /// Number of theory consistency checks the solver made: one per DPLL model it
        /// checked, plus those made while minimising conflict cores. Solver-query cache
        /// hits make none.
        theory_checks: usize,
        /// Number of alphabet transformations answered from the minterm-set memo.
        minterm_memo_hits: usize,
        /// Number of whole automata-inclusion checks answered from the inclusion memo.
        inclusion_memo_hits: usize,
        /// Number of DFAs constructed (two per decided per-group inclusion problem).
        dfas_built: usize,
        /// Total states of the DFAs constructed.
        dfa_states: usize,
        /// Total transitions of the DFAs constructed.
        dfa_transitions: usize,
        /// Number of alphabet symbols dropped by per-group pruning before product
        /// construction (minterms whose transition behaviour another symbol of the
        /// same group already exhibits).
        alphabet_pruned: usize,
        /// Number of DFA transitions answered from the run-wide transition memo.
        transition_memo_hits: usize,
        /// Number of distinct product states discovered by on-the-fly inclusion walks
        /// (0 when inclusion ran in materialising mode). A failing walk stops at the
        /// first accepting pair, so this is the number to compare against
        /// `dfa_states` for early-exit savings.
        product_states: usize,
        /// Number of per-group product walks answered from the DFA-shape memo.
        shape_memo_hits: usize,
        /// Number of antichain subsumption probes issued by on-the-fly product walks
        /// (0 with `--subsume off` or in materialising mode).
        subsumption_checks: usize,
        /// Number of product pairs dropped by antichain subsumption before
        /// exploration.
        subsumed_pairs: usize,
        /// Number of simulation-preorder probes answered from the run-wide
        /// subsumption memo.
        simulation_memo_hits: usize,
        /// Number of shared-tier shard-lock acquisitions the oracle performed (0
        /// without a tiered oracle). Per-worker local read-through tiers absorb repeat
        /// lookups lock-free, so this drops under `--jobs N` while hit counts stay.
        shared_tier_locks: usize,
    }
}

impl CheckStats {
    /// Average number of transitions per constructed DFA (the paper's `avg. s_FA`).
    pub fn avg_fa_size(&self) -> f64 {
        if self.dfas_built == 0 {
            0.0
        } else {
            self.dfa_transitions as f64 / self.dfas_built as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_sum_and_difference_cover_every_counter() {
        let mut one = CheckStats::default();
        for (i, (_, slot)) in one.counters_mut().enumerate() {
            match slot {
                CounterMut::Count(n) => *n = i + 1,
                CounterMut::Time(t) => *t = Duration::from_millis(i as u64 + 1),
            }
        }
        let two: CheckStats = [one, one].into_iter().sum();
        assert_eq!(two - one, one);
        assert_eq!(one - two, CheckStats::default(), "subtraction saturates");
        let names: Vec<_> = two.counters().map(|(name, _)| name).collect();
        assert_eq!(names, CheckStats::NAMES);
        for ((_, a), (_, b)) in one.counters().zip(two.counters()) {
            match (a, b) {
                (Counter::Count(a), Counter::Count(b)) => assert_eq!(2 * a, b),
                (Counter::Time(a), Counter::Time(b)) => assert_eq!(2 * a, b),
                _ => panic!("a counter changed type"),
            }
        }
    }

    #[test]
    fn average_fa_size_is_derived_from_summed_counters() {
        let stats = CheckStats {
            dfas_built: 4,
            dfa_transitions: 70,
            ..CheckStats::default()
        };
        assert_eq!(stats.avg_fa_size(), 17.5);
        assert_eq!(CheckStats::default().avg_fa_size(), 0.0);
    }
}
