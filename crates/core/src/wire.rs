//! Wire-level request canonicalization for the service plane.
//!
//! A `sleeping-mst serve` daemon dedupes and caches work by the request's
//! *meaning*, not its spelling: two requests that are guaranteed to
//! produce identical bytes must map to the same cache key. This module is
//! the single place that guarantee is encoded. A [`RunRequest`] (the
//! untrusted, stringly request off the socket) canonicalizes into a
//! [`CanonicalRun`] whose [`CanonicalRun::cache_key`] folds away every
//! knob that is *proven* not to affect output bytes:
//!
//! * **executor** — all three time drivers are bit-identical (pinned by
//!   the cross-driver differential proptests and the CI artifact `cmp`s),
//!   so a `sync` request can be served from a result a `calendar` worker
//!   computed;
//! * **inert fault plans** — a plan whose every intensity is zero takes
//!   the exact no-fault execution path
//!   ([`ExecOptions::active_faults`]), so it normalizes to "no plan" and
//!   shares the plain run's cache slot;
//! * **inert energy models** — a model whose every cost is zero cannot
//!   charge anything (budget or not), takes the exact no-energy path,
//!   and likewise normalizes to "no model".
//!
//! What stays in the key: algorithm name, graph spec string, seed (it
//! feeds both the graph weights and the protocol coins), any active
//! fault plan (every field, crashes included — fault decisions are a
//! pure function of the plan, so the plan *is* the behavior), and any
//! active energy model (charging fills the response's ledger, and a
//! budget can flip the outcome to `run.energy-exhausted`).
//!
//! The fingerprint is FNV-1a 64 over the canonical key string — the same
//! construction the report golden tests pin artifacts with.

use netsim::{EnergyModel, Executor, FaultPlan};

use crate::exec::ExecOptions;
use crate::registry::{self, AlgorithmSpec};

/// FNV-1a 64 over arbitrary bytes — the service plane's fingerprint
/// function (identical constants to the pinned report checksums).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An unvalidated run request as it arrives off the wire: algorithm and
/// graph are raw strings, every knob optional.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunRequest {
    /// Registry name of the algorithm to run.
    pub alg: String,
    /// Graph spec string (`ring:64`, `random:48:0.1`, …) — the grammar
    /// of [`graphlib::generators::from_spec`].
    pub graph: String,
    /// Seed for graph weights and protocol coins.
    pub seed: u64,
    /// Requested time driver. Does not change output bytes; erased from
    /// the cache key, honored at execution time.
    pub executor: Option<Executor>,
    /// Fault plan; an inert plan canonicalizes to "no plan".
    pub faults: FaultPlan,
    /// Energy model to charge against; an inert model (all costs zero)
    /// canonicalizes to "no model" — it cannot change output bytes or
    /// the ledger, so it shares the plain run's cache slot.
    pub energy: Option<EnergyModel>,
}

/// A validated, canonical run request: the algorithm resolved against
/// the registry, the fault plan normalized, and the bit-identical knobs
/// separated from the cache-key fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalRun {
    /// The resolved registry entry.
    pub alg: &'static AlgorithmSpec,
    /// The graph spec, byte-for-byte as requested (the grammar is strict
    /// so distinct spellings are distinct graphs).
    pub graph: String,
    /// The request seed.
    pub seed: u64,
    /// The active fault plan, or `None` if the request's plan was inert.
    pub faults: Option<FaultPlan>,
    /// The active energy model, or `None` if the request's model was
    /// absent or inert. Stays in the cache key: charging fills the
    /// response's energy ledger, and a budget can change the outcome.
    pub energy: Option<EnergyModel>,
    /// Execution-only: requested driver (excluded from the key).
    pub executor: Option<Executor>,
}

impl RunRequest {
    /// Validates and canonicalizes the request.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if the algorithm name is not in
    /// the registry. (The graph spec is validated later, at execution
    /// time, where building it is unavoidable anyway — a bad spec is a
    /// deterministic, cacheable error.)
    pub fn canonicalize(&self) -> Result<CanonicalRun, String> {
        let alg = registry::find(&self.alg).ok_or_else(|| {
            format!(
                "unknown algorithm '{}' (expected {})",
                self.alg,
                registry::names()
            )
        })?;
        Ok(CanonicalRun {
            alg,
            graph: self.graph.clone(),
            seed: self.seed,
            faults: Some(self.faults.clone()).filter(|p| !p.is_inert()),
            energy: self.energy.filter(|m| !m.is_inert()),
            executor: self.executor,
        })
    }
}

impl CanonicalRun {
    /// The canonical cache-key string. Everything that can change output
    /// bytes is in here; everything proven bit-identical (the executor)
    /// is not. Inert fault plans render as the empty fault
    /// field, sharing the plain run's slot.
    pub fn cache_key(&self) -> String {
        let mut key = format!(
            "run|alg={}|graph={}|seed={}",
            self.alg.name, self.graph, self.seed
        );
        if let Some(plan) = &self.faults {
            // `crashes` is kept sorted by FaultPlan::with_crash, so the
            // rendering is canonical without re-sorting.
            let crashes: Vec<String> = plan
                .crashes
                .iter()
                .map(|(node, round)| format!("{node}@{round}"))
                .collect();
            key.push_str(&format!(
                "|faults=fs:{},drop:{},dup:{},sleep:{},jitter:{},crashes:{}",
                plan.fault_seed,
                plan.drop_ppm,
                plan.duplicate_ppm,
                plan.spurious_sleep_ppm,
                plan.wake_jitter,
                crashes.join(";"),
            ));
        }
        if let Some(model) = &self.energy {
            // spec_string() is canonical (fixed field order, budget only
            // when present), so it can feed the key directly.
            key.push_str(&format!("|energy={}", model.spec_string()));
        }
        key
    }

    /// FNV-1a 64 fingerprint of [`CanonicalRun::cache_key`] — the LRU
    /// and in-flight coalescing key of the serve daemon.
    pub fn fingerprint(&self) -> u64 {
        fnv64(self.cache_key().as_bytes())
    }

    /// The [`ExecOptions`] this request executes under. The
    /// execution-only executor choice is honored here even though the
    /// cache key erased it.
    pub fn exec_options(&self) -> ExecOptions {
        let mut opts = ExecOptions::seeded(self.seed);
        if let Some(plan) = &self.faults {
            opts = opts.with_faults(plan.clone());
        }
        if let Some(executor) = self.executor {
            opts = opts.with_executor(executor);
        }
        if let Some(model) = self.energy {
            opts = opts.with_energy(model);
        }
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(alg: &str, graph: &str, seed: u64) -> RunRequest {
        RunRequest {
            alg: alg.into(),
            graph: graph.into(),
            seed,
            ..RunRequest::default()
        }
    }

    #[test]
    fn fnv64_matches_the_pinned_construction() {
        // Offset basis for the empty input; a known-answer probe for one byte.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unknown_algorithms_are_rejected() {
        let err = request("bogus", "ring:8", 0).canonicalize().unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
        assert!(err.contains("randomized"), "lists valid names: {err}");
    }

    #[test]
    fn executor_is_erased_from_the_key_but_kept_for_execution() {
        let mut req = request("randomized", "ring:16", 7);
        let plain = req.canonicalize().unwrap();
        req.executor = Some(Executor::Sync);
        let tuned = req.canonicalize().unwrap();
        assert_eq!(plain.cache_key(), tuned.cache_key());
        assert_eq!(plain.fingerprint(), tuned.fingerprint());
        assert_eq!(tuned.exec_options().executor, Some(Executor::Sync));
        assert_eq!(plain.exec_options().executor, None);
    }

    #[test]
    fn inert_fault_plans_share_the_plain_slot_and_active_ones_do_not() {
        let mut req = request("randomized", "ring:16", 7);
        let plain = req.canonicalize().unwrap();
        req.faults = FaultPlan::seeded(99); // inert: only a stream seed
        let inert = req.canonicalize().unwrap();
        assert_eq!(plain.cache_key(), inert.cache_key());
        assert!(inert.faults.is_none());
        assert_eq!(inert.exec_options(), ExecOptions::seeded(7));

        req.faults = FaultPlan::seeded(99).with_drop_ppm(1);
        let active = req.canonicalize().unwrap();
        assert_ne!(plain.cache_key(), active.cache_key());
        assert!(
            active.cache_key().contains("fs:99"),
            "{}",
            active.cache_key()
        );
        assert!(active.exec_options().active_faults().is_some());
    }

    #[test]
    fn inert_energy_models_share_the_plain_slot_and_active_ones_do_not() {
        let mut req = request("randomized", "ring:16", 7);
        let plain = req.canonicalize().unwrap();
        // All-zero costs: inert even with a budget attached.
        req.energy = Some(EnergyModel::default().with_budget(123));
        let inert = req.canonicalize().unwrap();
        assert_eq!(plain.cache_key(), inert.cache_key());
        assert!(inert.energy.is_none());
        assert_eq!(inert.exec_options(), ExecOptions::seeded(7));

        req.energy = Some(EnergyModel::reference());
        let active = req.canonicalize().unwrap();
        assert_ne!(plain.cache_key(), active.cache_key());
        assert!(
            active
                .cache_key()
                .contains("|energy=round:1000,tx:8,rx:4,idle:50"),
            "{}",
            active.cache_key()
        );
        assert!(active.exec_options().active_energy().is_some());
        // A budget extends the same segment and moves the fingerprint.
        req.energy = Some(EnergyModel::reference().with_budget(5_000_000));
        let budgeted = req.canonicalize().unwrap();
        assert_ne!(active.fingerprint(), budgeted.fingerprint());
        assert!(
            budgeted.cache_key().ends_with("budget:5000000"),
            "{}",
            budgeted.cache_key()
        );
    }

    #[test]
    fn every_key_field_moves_the_fingerprint() {
        let base = request("randomized", "ring:16", 7).canonicalize().unwrap();
        for other in [
            request("deterministic", "ring:16", 7),
            request("randomized", "ring:17", 7),
            request("randomized", "ring:16", 8),
        ] {
            assert_ne!(
                base.fingerprint(),
                other.canonicalize().unwrap().fingerprint(),
                "{other:?}"
            );
        }
        let mut crash = request("randomized", "ring:16", 7);
        crash.faults = FaultPlan::seeded(0).with_crash(3, 20);
        let crash = crash.canonicalize().unwrap();
        assert_ne!(base.fingerprint(), crash.fingerprint());
        assert!(crash.cache_key().contains("crashes:3@20"));
    }

    #[test]
    fn cache_key_is_stable() {
        // The key string is a wire-visible contract (it feeds committed
        // fingerprints); pin one example literally.
        let mut req = request("logstar", "grid:3x4", 5);
        req.faults = FaultPlan::seeded(2).with_drop_ppm(10).with_crash(1, 9);
        assert_eq!(
            req.canonicalize().unwrap().cache_key(),
            "run|alg=logstar|graph=grid:3x4|seed=5\
             |faults=fs:2,drop:10,dup:0,sleep:0,jitter:0,crashes:1@9"
        );
    }
}
