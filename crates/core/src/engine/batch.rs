//! The memoized Eq. 1 and the branch-and-bound lower bound, for many
//! parallelism candidates in one vectorized pass. This is the only
//! implementation of either: [`Estimator::estimate_cached`] and
//! [`Estimator::compute_lower_bound`] are one-candidate calls of
//! [`BatchEvaluator::estimate_many`] and [`BatchEvaluator::lower_bounds`].
//!
//! [`BatchEvaluator::estimate_many`] is [`Estimator::estimate`] with its
//! per-layer loops collapsed to one iteration per *distinct layer kind*
//! (weighted by multiplicity), scenario-invariant sub-results served from
//! an [`EstimateCache`], and the per-candidate work unrolled across the
//! batch:
//!
//! - **Invariant hoisting** — everything that does not depend on the
//!   candidate (layer-kind groups, per-kind operation counts at the global
//!   batch, precision scales, the left-associated constant products of the
//!   per-kind compute terms, the model-FLOP count) is computed once per
//!   batch instead of once per candidate.
//! - **Struct-of-arrays compute loops** — the per-layer-kind compute
//!   arithmetic runs kind-outer/candidate-inner over flat `Vec<f64>`
//!   buffers, so the inner loop is straight-line arithmetic the compiler
//!   can auto-vectorize.
//! - **Communication term reuse** — every communication term depends on
//!   the mapping's degrees and the replica batch, never on the microbatch
//!   policy, so consecutive microbatch variants of one mapping share a
//!   single evaluation of the communication block.
//!
//! The grouped sums agree with the literal per-layer `estimate` up to
//! float associativity: `estimate` adds 80 identical layer terms one by
//! one, the kernel multiplies one term by 80, so results can differ by a
//! few ulps (pinned to 1e-9 relative by the tests below).
//!
//! [`BatchEvaluator::lower_bounds`] is the same kernel under a term mask:
//! the compute loop runs with stage imbalance masked to `1.0`, and the
//! communication block keeps only its two tensor-parallel terms. The mask
//! drops or shrinks only non-negative terms under monotone float
//! operations, which is why the bound never exceeds the estimate exactly
//! in f64 — what lets `amped-search` prune without ever discarding the
//! true optimum.
//!
//! **Batch independence**: per candidate, every float operation happens
//! with the same values, the same association and the same order whatever
//! else the batch holds — hoisting only moves *where* a product is
//! computed, never *how* — and all memoized sub-results go through the
//! same [`EstimateCache`] accessors. So a batch of N is bit-identical to N
//! one-candidate calls and fills the cache with the same entries; the
//! tests pin this cold and warm.

use amped_topo::Collective;

use crate::accelerator::AcceleratorSpec;
use crate::efficiency::EfficiencyModel;
use crate::engine::{Breakdown, EngineOptions, Estimate, EstimateCache, Estimator, Scenario};
use crate::error::{Error, Result};
use crate::metrics;
use crate::model::{LayerKind, TransformerModel};
use crate::network::SystemSpec;
use crate::parallelism::{MicrobatchPolicy, Parallelism, ZeroStage};
use crate::precision::Precision;
use crate::training::TrainingConfig;
use crate::units::Seconds;

/// The communication components of one candidate's breakdown, all invariant
/// across the candidate's microbatch variants.
#[derive(Debug, Clone, Copy, Default)]
struct CommTerms {
    tp_comm_intra: f64,
    tp_comm_inter: f64,
    moe_comm: f64,
    pp_comm: f64,
    dp_comm_intra: f64,
    dp_comm_inter: f64,
    fwd_comm_for_bubble: f64,
}

/// The candidate-invariant slice of one layer kind's compute terms: the
/// constant left factors of the `u_f`/`u_b`/`u_w` products, precomputed
/// once per batch with the per-candidate expression's own association.
struct KindTerms {
    macs_fwd: f64,
    bwd_macs: f64,
    nl_f: f64,
    nl_b: f64,
    ww: f64,
    count: f64,
}

/// The batch-invariant inputs of the compute loop, shared by
/// [`BatchEvaluator::estimate_many`] and [`BatchEvaluator::lower_bounds`].
struct Hoisted {
    groups: Vec<(LayerKind, usize)>,
    kind_terms: Vec<KindTerms>,
    c_nonlin: f64,
    mac_scale: f64,
    param_scale: f64,
    nonlin_scale: f64,
}

/// Per-candidate scalars of one batch, struct-of-arrays. Candidates whose
/// mapping fails validation carry their error and neutral values.
struct PerCandidate {
    errs: Vec<Option<Error>>,
    workers: Vec<f64>,
    n_ub: Vec<usize>,
    ub: Vec<f64>,
    eff: Vec<f64>,
    replica_batch: Vec<f64>,
    c_mac: Vec<f64>,
}

/// Per-candidate sums of the compute loop: the undivided `Σ U_f`/`Σ U_b`
/// the bubble needs, and the three compute components of the breakdown.
struct ComputeSums {
    sum_uf: Vec<f64>,
    sum_ub: Vec<f64>,
    forward: Vec<f64>,
    backward: Vec<f64>,
    weight_update: Vec<f64>,
}

/// The compute loop, kind-outer and candidate-inner. Accumulation order
/// per candidate is group order, and each expression completes the
/// hoisted left factor's association. With `imbalance` all `1.0` it is
/// the lower bound's loop: `1.0 * u` is `u` exactly.
fn compute_sums(h: &Hoisted, c_mac: &[f64], imbalance: &[f64], workers: &[f64]) -> ComputeSums {
    let n = c_mac.len();
    let mut s = ComputeSums {
        sum_uf: vec![0.0; n],
        sum_ub: vec![0.0; n],
        forward: vec![0.0; n],
        backward: vec![0.0; n],
        weight_update: vec![0.0; n],
    };
    for kt in &h.kind_terms {
        for j in 0..n {
            let u_f = kt.macs_fwd * c_mac[j] * h.mac_scale + kt.nl_f;
            let u_b = kt.bwd_macs * c_mac[j] * h.mac_scale + kt.nl_b;
            let u_w = kt.ww * c_mac[j] * h.param_scale;
            let iuf = imbalance[j] * u_f;
            let iub = imbalance[j] * u_b;
            s.sum_uf[j] += iuf * kt.count;
            s.sum_ub[j] += iub * kt.count;
            s.forward[j] += iuf / workers[j] * kt.count;
            s.backward[j] += iub / workers[j] * kt.count;
            s.weight_update[j] += u_w / workers[j] * kt.count;
        }
    }
    s
}

/// The memoized stage-imbalance ratio `r = t*/t̄` for a `pp`-stage split of
/// the layer stack at per-layer weights priced with the given accelerator
/// constants. It depends only on `(pp, eff)` for a fixed scenario; the
/// `n_ub`-dependent scaling is applied per candidate.
#[allow(clippy::too_many_arguments)]
fn stage_imbalance_ratio(
    cache: &mut EstimateCache,
    model: &TransformerModel,
    pp: usize,
    eff_bits: u64,
    c_mac: f64,
    mac_scale: f64,
    c_nonlin: f64,
    nonlin_scale: f64,
) -> f64 {
    if let Some(r) = cache.imbalance_ratio(pp, eff_bits) {
        return r;
    }
    let stack = model.layer_stack();
    let weights: Vec<f64> = stack
        .iter()
        .map(|&kind| {
            let c = cache.layer_counts(model, kind, 1.0);
            c.macs_fwd * c_mac * mac_scale + c.nonlin_fwd * c_nonlin * nonlin_scale
        })
        .collect();
    let base = stack.len() / pp;
    let extra = stack.len() % pp;
    let mut cursor = 0;
    let mut max_stage = 0.0f64;
    let total: f64 = weights.iter().sum();
    for s in 0..pp {
        let take = base + usize::from(s < extra);
        let stage: f64 = weights[cursor..cursor + take].iter().sum();
        max_stage = max_stage.max(stage);
        cursor += take;
    }
    let r = if total > 0.0 {
        (max_stage * pp as f64 / total).max(1.0)
    } else {
        1.0
    };
    cache.set_imbalance_ratio(pp, eff_bits, r);
    r
}

/// The memoized Eq. 10 per-accelerator gradient-sync volume for a
/// `(tp, pp)` shard.
fn grad_sync_volume(
    cache: &mut EstimateCache,
    model: &TransformerModel,
    system: &SystemSpec,
    groups: &[(LayerKind, usize)],
    tp: usize,
    pp: usize,
) -> f64 {
    if let Some(v) = cache.grad_volume(tp, pp) {
        return v;
    }
    let expert_parallel = model
        .moe()
        .map(|cfg| cfg.num_experts.min(system.num_nodes()).max(1))
        .unwrap_or(1) as f64;
    let v: f64 = groups
        .iter()
        .map(|&(kind, count)| {
            let cg = cache.layer_counts(model, kind, 1.0);
            let dense_weights = cg.weights - cg.weights_expert;
            (dense_weights + cg.weights_expert / expert_parallel)
                / (tp as f64 * pp as f64)
                * count as f64
        })
        .sum();
    cache.set_grad_volume(tp, pp, v);
    v
}

/// Which communication terms [`BatchEvaluator::comm_terms`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommMask {
    /// Every term of the estimate.
    All,
    /// Only the two tensor-parallel all-reduce terms: the lower bound's
    /// communication floor.
    TensorParallel,
}

/// Batched analytical evaluation of many parallelism candidates under one
/// shared scenario (model, accelerator, system, precision, efficiency,
/// engine options).
///
/// # Example
///
/// ```
/// use amped_core::{
///     AcceleratorSpec, BatchEvaluator, EfficiencyModel, EstimateCache, Estimator, Link,
///     Parallelism, SystemSpec, TrainingConfig, TransformerModel,
/// };
///
/// # fn main() -> Result<(), amped_core::Error> {
/// let model = TransformerModel::builder("demo")
///     .layers(24).hidden_size(2048).heads(16).seq_len(1024).vocab_size(32000)
///     .build()?;
/// let accel = AcceleratorSpec::builder("A100")
///     .frequency_hz(1.41e9).cores(108).mac_units(4, 512, 8)
///     .nonlin_units(192, 4, 32).memory(80e9, 2.0e12)
///     .build()?;
/// let system = SystemSpec::new(2, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 2e11), 8)?;
/// let training = TrainingConfig::new(512, 100)?;
/// let mappings = vec![
///     Parallelism::builder().tp(8, 1).dp(1, 2).build()?,
///     Parallelism::builder().tp(4, 1).pp(2, 1).dp(1, 2).build()?,
/// ];
///
/// let mut cache = EstimateCache::new();
/// let batch = BatchEvaluator::new(&model, &accel, &system)
///     .with_efficiency(EfficiencyModel::Constant(0.5));
/// let estimates = batch.estimate_many(&mut cache, &mappings, &training);
///
/// // Bit-identical to pricing the candidates one at a time.
/// let mut one_cache = EstimateCache::new();
/// for (p, batched) in mappings.iter().zip(&estimates) {
///     let one = Estimator::new(&model, &accel, &system, p)
///         .with_efficiency(EfficiencyModel::Constant(0.5))
///         .estimate_cached(&mut one_cache, &training)?;
///     assert_eq!(
///         one.total_time.get().to_bits(),
///         batched.as_ref().unwrap().total_time.get().to_bits(),
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchEvaluator<'a> {
    model: &'a TransformerModel,
    accel: &'a AcceleratorSpec,
    system: &'a SystemSpec,
    precision: Precision,
    efficiency: EfficiencyModel,
    options: EngineOptions,
}

impl<'a> BatchEvaluator<'a> {
    /// A batch evaluator with default precision, efficiency and options —
    /// the same defaults as [`Estimator::new`](crate::Estimator::new).
    pub fn new(
        model: &'a TransformerModel,
        accel: &'a AcceleratorSpec,
        system: &'a SystemSpec,
    ) -> Self {
        BatchEvaluator {
            model,
            accel,
            system,
            precision: Precision::default(),
            efficiency: EfficiencyModel::default(),
            options: EngineOptions::default(),
        }
    }

    /// A batch evaluator sharing a [`Scenario`]'s specifications (the
    /// scenario's own parallelism is ignored: candidates supply theirs).
    pub fn from_scenario(scenario: &'a Scenario) -> Self {
        BatchEvaluator {
            model: &scenario.model,
            accel: &scenario.accelerator,
            system: &scenario.system,
            precision: scenario.precision,
            efficiency: scenario.efficiency.clone(),
            options: scenario.options,
        }
    }

    /// A batch evaluator sharing an [`Estimator`]'s specifications (the
    /// estimator's own parallelism is ignored: candidates supply theirs).
    fn of(estimator: &Estimator<'a>) -> Self {
        BatchEvaluator {
            model: estimator.model(),
            accel: estimator.accel(),
            system: estimator.system(),
            precision: estimator.precision(),
            efficiency: estimator.efficiency().clone(),
            options: estimator.options(),
        }
    }

    /// Override the operand precisions.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Override the microbatch-efficiency model.
    pub fn with_efficiency(mut self, efficiency: EfficiencyModel) -> Self {
        self.efficiency = efficiency;
        self
    }

    /// Override the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Price every candidate mapping for `training`, returning one result
    /// per input in order: [`Estimator::estimate`] per candidate up to
    /// float associativity, and bit-identical to pricing the candidates
    /// one at a time against the same cache (same cache entries too).
    ///
    /// Per-candidate errors (an invalid mapping for the system/model) land
    /// in that candidate's slot; shared-input validation errors (bad
    /// precision/efficiency/options) fill every slot.
    pub fn estimate_many(
        &self,
        cache: &mut EstimateCache,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) -> Vec<Result<Estimate>> {
        let n = mappings.len();
        if n == 0 {
            return Vec::new();
        }
        if let Err(e) = self.validate_shared() {
            return mappings.iter().map(|_| Err(e.clone())).collect();
        }

        let model = self.model;
        let opts = self.options;
        let global_batch = training.global_batch();
        let h = self.hoist(cache, global_batch);
        let stack_len: usize = h.groups.iter().map(|(_, n)| n).sum();
        let compute_scale = match opts.bubble_accounting {
            crate::engine::BubbleAccounting::GPipe => 1.0,
            crate::engine::BubbleAccounting::PaperEq8 => 1.0 / stack_len as f64,
        };
        let model_flops = match cache.model_flops(global_batch, opts.activation_recompute) {
            Some(v) => v,
            None => {
                let v = metrics::model_flops_per_iteration(
                    model,
                    global_batch,
                    opts.activation_recompute,
                );
                cache.set_model_flops(global_batch, opts.activation_recompute, v);
                v
            }
        };

        let PerCandidate {
            mut errs,
            workers,
            n_ub,
            ub,
            eff,
            replica_batch,
            c_mac,
        } = self.per_candidate(mappings, global_batch);
        let mut imbalance = vec![1.0f64; n];
        for (j, p) in mappings.iter().enumerate() {
            if errs[j].is_none() && opts.stage_imbalance_correction && p.pp() > 1 {
                let r = stage_imbalance_ratio(
                    cache,
                    model,
                    p.pp(),
                    eff[j].to_bits(),
                    c_mac[j],
                    h.mac_scale,
                    h.c_nonlin,
                    h.nonlin_scale,
                );
                let (m, pf) = (n_ub[j] as f64, p.pp() as f64);
                imbalance[j] = ((pf + (m - 1.0) * r) / (m + pf - 1.0)).max(1.0);
            }
        }

        // ---- Vectorized compute loops: kind-outer, candidate-inner. ----
        let sums = compute_sums(&h, &c_mac, &imbalance, &workers);

        // ---- Communication, shared across a mapping's variants. ----
        // All terms depend only on the mapping's degrees/ZeRO config and
        // the replica batch, never on the microbatch policy, so a run of
        // variants (adjacent by construction in the search) reuses one
        // evaluation. Keying on the policy-normalized mapping makes the
        // reuse exact rather than heuristic.
        let mut comm = vec![CommTerms::default(); n];
        let mut prev: Option<(Parallelism, CommTerms)> = None;
        for (j, p) in mappings.iter().enumerate() {
            if errs[j].is_some() {
                continue;
            }
            let norm = p.with_microbatches(MicrobatchPolicy::Explicit(1));
            comm[j] = match &prev {
                Some((key, t)) if *key == norm => *t,
                _ => {
                    let t = self.comm_terms(cache, p, replica_batch[j], &h.groups, CommMask::All);
                    prev = Some((norm, t));
                    t
                }
            };
        }

        // ---- Per-candidate epilogue. ----
        let num_batches = training.num_batches() as f64;
        (0..n)
            .map(|j| {
                if let Some(e) = errs[j].take() {
                    return Err(e);
                }
                let p = &mappings[j];
                let t = comm[j];
                let mut b = Breakdown {
                    compute_forward: sums.forward[j],
                    compute_backward: sums.backward[j],
                    weight_update: sums.weight_update[j],
                    tp_comm_intra: t.tp_comm_intra,
                    tp_comm_inter: t.tp_comm_inter,
                    pp_comm: t.pp_comm,
                    moe_comm: t.moe_comm,
                    dp_comm_intra: t.dp_comm_intra,
                    dp_comm_inter: t.dp_comm_inter,
                    bubble: 0.0,
                };
                if p.pp() > 1 {
                    b.bubble = p.bubble_ratio() * (p.pp() as f64 - 1.0) / n_ub[j] as f64
                        * (compute_scale * (sums.sum_uf[j] + sums.sum_ub[j]) / workers[j]
                            + t.fwd_comm_for_bubble);
                }
                let time_per_iteration = b.total();
                let total_time = time_per_iteration * num_batches;
                let tflops_per_gpu =
                    metrics::tflops_per_gpu(model_flops, time_per_iteration, workers[j]);
                let tokens_per_sec = if time_per_iteration > 0.0 {
                    (global_batch * model.seq_len()) as f64 / time_per_iteration
                } else {
                    0.0
                };
                Ok(Estimate {
                    breakdown: b,
                    time_per_iteration: Seconds::new(time_per_iteration),
                    total_time: Seconds::new(total_time),
                    microbatch_size: ub[j],
                    num_microbatches: n_ub[j],
                    efficiency: eff[j],
                    model_flops_per_iteration: model_flops,
                    tflops_per_gpu,
                    total_workers: p.total_workers(),
                    tokens_per_sec,
                })
            })
            .collect()
    }

    /// The branch-and-bound lower bound of every candidate mapping for
    /// `training`, one result per input in order: forward + backward +
    /// weight-update time at the candidate's own microbatch efficiency,
    /// plus the tensor-parallel all-reduce floor.
    ///
    /// This is [`BatchEvaluator::estimate_many`]'s kernel under a term
    /// mask: the compute loop runs with stage imbalance masked to `1.0`
    /// and the communication block keeps only the two tensor-parallel
    /// terms; the bubble and every other communication term are dropped.
    /// Each masked term is non-negative and enters the estimate through a
    /// monotone float operation, so a bound never exceeds the estimate of
    /// the same candidate, exactly in f64. The TP terms are invariant
    /// across a mapping's microbatch variants, which is what lets
    /// `amped-search` bound a whole family of splits at once.
    ///
    /// Errors land per slot as in `estimate_many`.
    pub fn lower_bounds(
        &self,
        cache: &mut EstimateCache,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) -> Vec<Result<Seconds>> {
        let n = mappings.len();
        if n == 0 {
            return Vec::new();
        }
        if let Err(e) = self.validate_shared() {
            return mappings.iter().map(|_| Err(e.clone())).collect();
        }

        let global_batch = training.global_batch();
        let h = self.hoist(cache, global_batch);
        let PerCandidate {
            mut errs,
            workers,
            replica_batch,
            c_mac,
            ..
        } = self.per_candidate(mappings, global_batch);
        let sums = compute_sums(&h, &c_mac, &vec![1.0; n], &workers);

        let num_batches = training.num_batches() as f64;
        (0..n)
            .map(|j| {
                if let Some(e) = errs[j].take() {
                    return Err(e);
                }
                let t = self.comm_terms(
                    cache,
                    &mappings[j],
                    replica_batch[j],
                    &h.groups,
                    CommMask::TensorParallel,
                );
                // Same association as Breakdown::compute_total(), the head
                // of Breakdown::comm_total()'s left fold, and Eq. 1's batch
                // multiplication.
                let compute = sums.forward[j] + sums.backward[j] + sums.weight_update[j];
                let per_iteration = compute + (t.tp_comm_intra + t.tp_comm_inter);
                Ok(Seconds::new(per_iteration * num_batches))
            })
            .collect()
    }

    /// Validate the inputs every candidate shares, in
    /// [`Estimator::estimate`]'s order.
    fn validate_shared(&self) -> Result<()> {
        self.precision.validate()?;
        self.efficiency.validate()?;
        self.options.validate()
    }

    /// The batch-invariant half of the kernel: layer-kind groups, precision
    /// scales and the constant left factors of the per-kind compute terms.
    /// Each product is a prefix of the per-candidate expression's
    /// left-associated chain, so completing it per candidate gives the same
    /// bits as evaluating the whole chain there.
    fn hoist(&self, cache: &mut EstimateCache, global_batch: usize) -> Hoisted {
        let (model, accel) = (self.model, self.accel);
        let opts = self.options;
        let c_nonlin = accel.c_nonlin();
        let mac_scale = accel.mac_precision_scale(self.precision.mac_operand_bits());
        let param_scale = accel.mac_precision_scale(self.precision.param_bits);
        let nonlin_scale = accel.nonlin_precision_scale(self.precision.nonlin_bits);
        let bwd_c = opts.backward_compute_factor + if opts.activation_recompute { 1.0 } else { 0.0 };

        let groups = cache.groups(model);
        let kind_terms = groups
            .iter()
            .map(|&(kind, count)| {
                let cg = cache.layer_counts(model, kind, global_batch as f64);
                KindTerms {
                    macs_fwd: cg.macs_fwd,
                    bwd_macs: bwd_c * cg.macs_fwd,
                    nl_f: cg.nonlin_fwd * c_nonlin * nonlin_scale,
                    nl_b: opts.backward_nonlin_factor * cg.nonlin_fwd * c_nonlin * nonlin_scale,
                    ww: opts.weight_update_factor * cg.weights,
                    count: count as f64,
                }
            })
            .collect();
        Hoisted {
            groups,
            kind_terms,
            c_nonlin,
            mac_scale,
            param_scale,
            nonlin_scale,
        }
    }

    /// Validate every candidate against the system and model and derive its
    /// microbatch split, efficiency and MAC cost.
    fn per_candidate(&self, mappings: &[Parallelism], global_batch: usize) -> PerCandidate {
        let n = mappings.len();
        let mut c = PerCandidate {
            errs: (0..n).map(|_| None).collect(),
            workers: vec![1.0; n],
            n_ub: vec![1; n],
            ub: vec![0.0; n],
            eff: vec![0.0; n],
            replica_batch: vec![0.0; n],
            c_mac: vec![0.0; n],
        };
        for (j, p) in mappings.iter().enumerate() {
            if let Err(e) = p.validate_against(self.system, self.model) {
                c.errs[j] = Some(e);
                continue;
            }
            c.workers[j] = p.total_workers() as f64;
            c.n_ub[j] = p.num_microbatches(global_batch);
            c.ub[j] = p.microbatch_size(global_batch);
            c.eff[j] = self.efficiency.eval(c.ub[j]);
            c.replica_batch[j] = p.replica_batch(global_batch);
            c.c_mac[j] = self.accel.c_mac(c.eff[j]);
        }
        c
    }

    /// One candidate's communication terms, one iteration per layer kind.
    /// Under [`CommMask::TensorParallel`] only the two TP terms are
    /// evaluated.
    ///
    /// The collective costs are looked up once per candidate, not once
    /// per layer kind. The MoE all-to-all lookup stays lazy (only when
    /// some kind routes tokens), so dense scenarios touch no cache entry
    /// they do not use.
    fn comm_terms(
        &self,
        cache: &mut EstimateCache,
        p: &Parallelism,
        replica_batch: f64,
        groups: &[(LayerKind, usize)],
        mask: CommMask,
    ) -> CommTerms {
        let (model, system) = (self.model, self.system);
        let opts = self.options;
        let mut out = CommTerms::default();
        let tp_only = mask == CommMask::TensorParallel;
        if tp_only && p.tp_intra() == 1 && p.tp_inter() == 1 {
            return out;
        }

        // Every term passes forward and backward, inflated by ZeRO's
        // collective overhead; each also joins the bubble's forward share.
        let zero_factor = 1.0 + p.zero().comm_overhead;
        let comm_passes = zero_factor * (1.0 + opts.backward_comm_factor);
        let intra = system.intra();
        let inter = system.inter();
        let inter_bw = system.inter_bandwidth_per_accel();
        let nic_aggregate = system.inter().bandwidth_bits_per_sec * system.nics_per_node() as f64;
        let inter_bw_tp_stream = (inter_bw * p.tp_intra() as f64).min(nic_aggregate);
        let act_bits = self.precision.act_bits as f64;
        let stage_share = 1.0 / p.pp() as f64;

        let tp_intra = (p.tp_intra() > 1)
            .then(|| cache.collective(intra.topology, Collective::AllReduce, p.tp_intra()));
        let tp_inter = (p.tp_inter() > 1)
            .then(|| cache.collective(inter.topology, Collective::AllReduce, p.tp_inter()));
        let mut all_to_all = None;
        for &(kind, count) in groups {
            let cr = cache.layer_counts(model, kind, replica_batch);
            let n = count as f64;

            if let Some(cost) = tp_intra {
                let t = cost.time(
                    cr.act_elems_tp * act_bits,
                    intra.latency_s,
                    intra.bandwidth_bits_per_sec,
                );
                let term = comm_passes * stage_share * t * n;
                out.tp_comm_intra += term;
                out.fwd_comm_for_bubble += term;
            }
            if let Some(cost) = tp_inter {
                let t = cost.time(cr.act_elems_tp * act_bits, inter.latency_s, inter_bw_tp_stream);
                let term = comm_passes * stage_share * t * n;
                out.tp_comm_inter += term;
                out.fwd_comm_for_bubble += term;
            }
            if !tp_only && cr.act_elems_moe > 0.0 && system.num_nodes() >= 1 {
                let nodes = system.num_nodes() as f64;
                let cost = *all_to_all.get_or_insert_with(|| {
                    cache.collective(inter.topology, Collective::AllToAll, system.num_nodes())
                });
                let latency_term = 2.0 * inter.latency_s * cost.steps as f64;
                let volume_bits = cr.act_elems_moe * act_bits / p.tp() as f64;
                let bw_term = if nodes > 1.0 {
                    2.0 * volume_bits
                        * cost.factor
                        * (1.0 / (nodes * intra.bandwidth_bits_per_sec)
                            + (nodes - 1.0) / (nodes * inter_bw))
                } else {
                    2.0 * volume_bits / intra.bandwidth_bits_per_sec
                };
                let t = latency_term + bw_term;
                let term = comm_passes * stage_share * t * n;
                out.moe_comm += term;
                out.fwd_comm_for_bubble += term;
            }
        }

        if tp_only {
            return out;
        }

        if p.pp() > 1 {
            let vol_bits =
                replica_batch * model.seq_len() as f64 * model.hidden_size() as f64 * act_bits;
            let t_intra = if p.pp_intra() > 1 {
                intra.latency_s + vol_bits / intra.bandwidth_bits_per_sec
            } else {
                0.0
            };
            let t_inter = if p.pp_inter() > 1 {
                inter.latency_s + vol_bits / inter_bw_tp_stream
            } else {
                0.0
            };
            let t = t_intra.max(t_inter);
            out.pp_comm = comm_passes * t;
            out.fwd_comm_for_bubble += out.pp_comm;
        }

        let grad_collective = if p.zero().stage >= ZeroStage::Gradients {
            Collective::ReduceScatter
        } else {
            Collective::AllReduce
        };
        let grad_bits = self.precision.grad_bits as f64;
        let n_g_total = grad_sync_volume(cache, model, system, groups, p.tp(), p.pp());
        if p.dp_intra() > 1 {
            let cost = cache.collective(intra.topology, grad_collective, p.dp_intra());
            out.dp_comm_intra = cost.time(
                n_g_total * grad_bits,
                intra.latency_s,
                intra.bandwidth_bits_per_sec,
            );
        }
        if p.dp_inter() > 1 {
            let cost = cache.collective(inter.topology, grad_collective, p.dp_inter());
            out.dp_comm_inter = cost.time(
                n_g_total / p.dp_intra() as f64 * grad_bits,
                inter.latency_s,
                inter_bw,
            );
        }

        out
    }
}

impl<'a> Estimator<'a> {
    /// [`Estimator::estimate`] through the memoized kernel: a one-candidate
    /// call of [`BatchEvaluator::estimate_many`] that serves
    /// scenario-invariant sub-results from `cache` and does O(distinct
    /// layer kinds) work instead of O(layers).
    ///
    /// Results agree with `estimate` up to float associativity (a few ulps
    /// on a deep stack) and equal any batch's estimate of the same mapping
    /// bitwise. The cache must respect the context-binding contract
    /// described on [`EstimateCache`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn estimate_cached(
        &self,
        cache: &mut EstimateCache,
        training: &TrainingConfig,
    ) -> Result<Estimate> {
        BatchEvaluator::of(self)
            .estimate_many(cache, std::slice::from_ref(self.parallelism()), training)
            .pop()
            .expect("one estimate per candidate")
    }

    /// A lower bound on the total training time of this exact
    /// configuration: a one-candidate call of
    /// [`BatchEvaluator::lower_bounds`].
    ///
    /// Guaranteed `compute_lower_bound(..) <= estimate_cached(..).total_time`
    /// **exactly in f64**, which is what makes branch-and-bound pruning in
    /// `amped-search` lossless.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn compute_lower_bound(
        &self,
        cache: &mut EstimateCache,
        training: &TrainingConfig,
    ) -> Result<Seconds> {
        BatchEvaluator::of(self)
            .lower_bounds(cache, std::slice::from_ref(self.parallelism()), training)
            .pop()
            .expect("one bound per candidate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::model::MoeConfig;
    use crate::network::Link;
    use crate::parallelism::ZeroConfig;
    use crate::Estimator;

    fn accel() -> AcceleratorSpec {
        AcceleratorSpec::builder("A100")
            .frequency_hz(1.41e9)
            .cores(108)
            .mac_units(4, 512, 8)
            .nonlin_units(192, 4, 32)
            .memory(80e9, 2.0e12)
            .build()
            .unwrap()
    }

    fn system(nodes: usize, per_node: usize) -> SystemSpec {
        SystemSpec::new(
            nodes,
            per_node,
            Link::new(5e-6, 2.4e12),
            Link::new(1e-5, 2e11),
            per_node,
        )
        .unwrap()
    }

    fn dense_model() -> TransformerModel {
        TransformerModel::builder("batch-m")
            .layers(24)
            .hidden_size(2048)
            .heads(16)
            .seq_len(1024)
            .vocab_size(32000)
            .build()
            .unwrap()
    }

    fn moe_model() -> TransformerModel {
        TransformerModel::builder("batch-moe")
            .layers(12)
            .hidden_size(1024)
            .heads(16)
            .seq_len(512)
            .vocab_size(16000)
            .moe(MoeConfig::glam(8))
            .build()
            .unwrap()
    }

    /// Every valid 6-degree factorization of a 4x8 system, with microbatch
    /// variants interleaved the way the search tuner emits them.
    fn mappings_with_variants(global_batch: usize) -> Vec<Parallelism> {
        let mut out = Vec::new();
        for tp in [1usize, 2, 4, 8] {
            for pp in [1usize, 2, 4] {
                let rest = 32 / (tp * pp);
                let (dp_intra, dp_inter) = if rest >= 4 { (rest / 4, 4) } else { (rest, 1) };
                let Ok(p) = Parallelism::builder()
                    .tp(tp, 1)
                    .pp(pp, 1)
                    .dp(dp_intra, dp_inter)
                    .build()
                else {
                    continue;
                };
                let replica = (global_batch / p.dp()).max(1);
                let mut trial = 1usize;
                while trial <= replica {
                    out.push(
                        p.with_microbatches(MicrobatchPolicy::Explicit(replica.div_ceil(trial))),
                    );
                    trial *= 2;
                }
            }
        }
        out
    }

    fn assert_bit_identical(
        batch: &BatchEvaluator<'_>,
        one_of: impl Fn(&Parallelism, &mut EstimateCache) -> Result<Estimate>,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) {
        // Cold shared cache for the batch, cold shared cache for the
        // one-candidate loop: both must produce the same estimates AND the
        // same cache behaviour.
        let mut batch_cache = EstimateCache::new();
        let batched = batch.estimate_many(&mut batch_cache, mappings, training);
        let mut one_cache = EstimateCache::new();
        assert_eq!(batched.len(), mappings.len());
        for (p, b) in mappings.iter().zip(&batched) {
            let s = one_of(p, &mut one_cache);
            match (s, b) {
                (Ok(s), Ok(b)) => {
                    assert_eq!(
                        s.total_time.get().to_bits(),
                        b.total_time.get().to_bits(),
                        "total_time for {p:?}"
                    );
                    assert_eq!(
                        s.time_per_iteration.get().to_bits(),
                        b.time_per_iteration.get().to_bits()
                    );
                    for ((name, x), (_, y)) in
                        s.breakdown.components().iter().zip(b.breakdown.components())
                    {
                        assert_eq!(x.to_bits(), y.to_bits(), "{name} for {p:?}");
                    }
                    assert_eq!(s.num_microbatches, b.num_microbatches);
                    assert_eq!(s.microbatch_size.to_bits(), b.microbatch_size.to_bits());
                    assert_eq!(s.efficiency.to_bits(), b.efficiency.to_bits());
                    assert_eq!(s.tflops_per_gpu.to_bits(), b.tflops_per_gpu.to_bits());
                    assert_eq!(s.tokens_per_sec.to_bits(), b.tokens_per_sec.to_bits());
                    assert_eq!(
                        s.model_flops_per_iteration.to_bits(),
                        b.model_flops_per_iteration.to_bits()
                    );
                    assert_eq!(s.total_workers, b.total_workers);
                }
                (Err(_), Err(_)) => {}
                (s, b) => panic!("outcome mismatch for {p:?}: one {s:?} vs batch {b:?}"),
            }
        }
        // Warm-cache rerun of the batch stays bit-identical.
        let again = batch.estimate_many(&mut batch_cache, mappings, training);
        for (x, y) in batched.iter().zip(&again) {
            if let (Ok(x), Ok(y)) = (x, y) {
                assert_eq!(x.total_time.get().to_bits(), y.total_time.get().to_bits());
            }
        }
    }

    #[test]
    fn batch_matches_one_at_a_time_bitwise_dense() {
        let m = dense_model();
        let a = accel();
        let sys = system(4, 8);
        let effm = EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9);
        let opts = EngineOptions {
            stage_imbalance_correction: true,
            ..Default::default()
        };
        let training = TrainingConfig::new(512, 10).unwrap();
        let mappings = mappings_with_variants(512);
        assert!(mappings.len() > 20);
        let batch = BatchEvaluator::new(&m, &a, &sys)
            .with_efficiency(effm.clone())
            .with_options(opts);
        assert_bit_identical(
            &batch,
            |p, cache| {
                Estimator::new(&m, &a, &sys, p)
                    .with_efficiency(effm.clone())
                    .with_options(opts)
                    .estimate_cached(cache, &training)
            },
            &mappings,
            &training,
        );
    }

    #[test]
    fn batch_matches_one_at_a_time_bitwise_moe_with_zero() {
        let m = moe_model();
        let a = accel();
        let sys = system(4, 8);
        let effm = EfficiencyModel::Constant(0.6);
        let training = TrainingConfig::new(128, 5).unwrap();
        let mut mappings = Vec::new();
        for (tp, dp_intra, dp_inter) in [(8, 1, 4), (4, 2, 4), (2, 4, 4), (1, 8, 4)] {
            mappings.push(
                Parallelism::builder()
                    .tp(tp, 1)
                    .dp(dp_intra, dp_inter)
                    .zero(ZeroConfig::stage(ZeroStage::Gradients, 0.5))
                    .build()
                    .unwrap(),
            );
        }
        let batch = BatchEvaluator::new(&m, &a, &sys).with_efficiency(effm.clone());
        assert_bit_identical(
            &batch,
            |p, cache| {
                Estimator::new(&m, &a, &sys, p)
                    .with_efficiency(effm.clone())
                    .estimate_cached(cache, &training)
            },
            &mappings,
            &training,
        );
    }

    #[test]
    fn batch_fills_the_cache_with_the_one_at_a_time_entries() {
        let m = dense_model();
        let a = accel();
        let sys = system(4, 8);
        let effm = EfficiencyModel::Constant(0.5);
        let training = TrainingConfig::new(512, 10).unwrap();
        let mappings = mappings_with_variants(512);

        // A cache warmed by a batch serves one-candidate calls fully: a
        // one-at-a-time pass over a batch-warmed cache adds no new misses.
        let mut cache = EstimateCache::new();
        BatchEvaluator::new(&m, &a, &sys)
            .with_efficiency(effm.clone())
            .estimate_many(&mut cache, &mappings, &training);
        let misses = cache.misses();
        for p in &mappings {
            let _ = Estimator::new(&m, &a, &sys, p)
                .with_efficiency(effm.clone())
                .estimate_cached(&mut cache, &training);
        }
        assert_eq!(cache.misses(), misses, "batch path must pre-fill every entry");
    }

    #[test]
    fn invalid_candidates_error_in_place_without_poisoning_the_batch() {
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let training = TrainingConfig::new(64, 1).unwrap();
        let good = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        let bad = Parallelism::builder().tp(4, 1).build().unwrap(); // 4 != 16
        let mut cache = EstimateCache::new();
        let out = BatchEvaluator::new(&m, &a, &sys).estimate_many(
            &mut cache,
            &[good, bad, good],
            &training,
        );
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
        assert_eq!(
            out[0].as_ref().unwrap().total_time.get().to_bits(),
            out[2].as_ref().unwrap().total_time.get().to_bits()
        );
        // The per-candidate error matches the reference estimate's.
        let reference = Estimator::new(&m, &a, &sys, &bad).estimate(&training);
        assert_eq!(
            format!("{}", out[1].as_ref().unwrap_err()),
            format!("{}", reference.unwrap_err())
        );
    }

    #[test]
    fn lower_bounds_match_one_at_a_time_bitwise() {
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 7).unwrap();
        let effm = EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9);
        let bad = Parallelism::builder().tp(4, 1).build().unwrap(); // 4 != 32
        for (m, opts) in [
            (dense_model(), EngineOptions::default()),
            (
                moe_model(),
                EngineOptions {
                    stage_imbalance_correction: true,
                    activation_recompute: true,
                    ..Default::default()
                },
            ),
        ] {
            let mut mappings = mappings_with_variants(512);
            mappings.insert(3, bad);
            let batch = BatchEvaluator::new(&m, &a, &sys)
                .with_efficiency(effm.clone())
                .with_options(opts);
            let mut batch_cache = EstimateCache::new();
            let bounds = batch.lower_bounds(&mut batch_cache, &mappings, &training);
            let estimates = batch.estimate_many(&mut batch_cache, &mappings, &training);
            let mut one_cache = EstimateCache::new();
            for ((p, lb), est) in mappings.iter().zip(&bounds).zip(&estimates) {
                let one = Estimator::new(&m, &a, &sys, p)
                    .with_efficiency(effm.clone())
                    .with_options(opts)
                    .compute_lower_bound(&mut one_cache, &training);
                match (one, lb) {
                    (Ok(s), Ok(b)) => {
                        assert_eq!(s.get().to_bits(), b.get().to_bits(), "bound for {p:?}");
                        let total = est.as_ref().unwrap().total_time.get();
                        assert!(b.get() <= total, "bound above the estimate for {p:?}");
                    }
                    (Err(s), Err(b)) => assert_eq!(s.to_string(), b.to_string()),
                    (s, b) => panic!("outcome mismatch for {p:?}: one {s:?} vs batch {b:?}"),
                }
            }
        }
        // A shared-input error fills every slot with the one-candidate error.
        let m = dense_model();
        let bad_eff =
            BatchEvaluator::new(&m, &a, &sys).with_efficiency(EfficiencyModel::Constant(0.0));
        let p = mappings_with_variants(512)[0];
        let out = bad_eff.lower_bounds(&mut EstimateCache::new(), &[p, p], &training);
        let one = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.0))
            .compute_lower_bound(&mut EstimateCache::new(), &training)
            .unwrap_err();
        for slot in &out {
            assert_eq!(slot.as_ref().unwrap_err().to_string(), one.to_string());
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let mut cache = EstimateCache::new();
        let out = BatchEvaluator::new(&m, &a, &sys).estimate_many(
            &mut cache,
            &[],
            &TrainingConfig::new(64, 1).unwrap(),
        );
        assert!(out.is_empty());
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
    }

    fn assert_agrees(estimator: &Estimator<'_>, training: &TrainingConfig) {
        let mut cache = EstimateCache::new();
        // The literal per-layer reference against the memoized kernel.
        let plain = estimator.estimate(training).unwrap();
        let cached = estimator.estimate_cached(&mut cache, training).unwrap();
        assert!(
            close(plain.total_time.get(), cached.total_time.get()),
            "total: {} vs {}",
            plain.total_time.get(),
            cached.total_time.get()
        );
        for ((name, a), (_, b)) in plain
            .breakdown
            .components()
            .iter()
            .zip(cached.breakdown.components())
        {
            assert!(close(*a, b), "{name}: {a} vs {b}");
        }
        assert_eq!(plain.num_microbatches, cached.num_microbatches);
        assert!(close(plain.tflops_per_gpu, cached.tflops_per_gpu));
        // A second cached call is fully served from the cache and identical.
        let misses = cache.misses();
        let again = estimator.estimate_cached(&mut cache, training).unwrap();
        assert_eq!(again.total_time.get().to_bits(), cached.total_time.get().to_bits());
        assert_eq!(cache.misses(), misses);
    }

    #[test]
    fn one_candidate_matches_estimate_dense_tp() {
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let p = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        let est = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        assert_agrees(&est, &TrainingConfig::new(256, 10).unwrap());
    }

    #[test]
    fn one_candidate_matches_estimate_pipelined_with_imbalance() {
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let p = Parallelism::builder()
            .tp(2, 1)
            .pp(4, 2)
            .dp(1, 1)
            .microbatches(MicrobatchPolicy::Explicit(16))
            .build()
            .unwrap();
        let est = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9))
            .with_options(EngineOptions {
                stage_imbalance_correction: true,
                ..Default::default()
            });
        assert_agrees(&est, &TrainingConfig::new(512, 3).unwrap());
    }

    #[test]
    fn one_candidate_matches_estimate_moe_with_zero() {
        let m = moe_model();
        let a = accel();
        let sys = system(4, 8);
        let p = Parallelism::builder()
            .tp(8, 1)
            .dp(1, 4)
            .zero(ZeroConfig::stage(ZeroStage::Gradients, 0.5))
            .build()
            .unwrap();
        let est = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.6));
        assert_agrees(&est, &TrainingConfig::new(128, 5).unwrap());
    }

    #[test]
    fn cache_survives_parallelism_and_batch_changes() {
        // The same cache serves different mappings and batch sizes; keyed
        // sub-results keep the outputs equal to fresh-cache runs.
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let training = TrainingConfig::new(256, 2).unwrap();
        let mut shared = EstimateCache::new();
        for (tp, pp, dp_intra, dp_inter) in [(8, 1, 1, 2), (4, 2, 1, 2), (1, 8, 1, 2), (2, 1, 4, 2)]
        {
            let p = Parallelism::builder()
                .tp(tp, 1)
                .pp(pp, 1)
                .dp(dp_intra, dp_inter)
                .build()
                .unwrap();
            let est = Estimator::new(&m, &a, &sys, &p)
                .with_efficiency(EfficiencyModel::Constant(0.5));
            let mut fresh = EstimateCache::new();
            let from_shared = est.estimate_cached(&mut shared, &training).unwrap();
            let from_fresh = est.estimate_cached(&mut fresh, &training).unwrap();
            assert_eq!(
                from_shared.total_time.get().to_bits(),
                from_fresh.total_time.get().to_bits()
            );
        }
        assert!(shared.hits() > 0);
    }

    #[test]
    fn lower_bound_never_exceeds_cached_estimate() {
        let m = moe_model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(256, 7).unwrap();
        for p in [
            Parallelism::builder().tp(8, 1).dp(1, 4).build().unwrap(),
            Parallelism::builder().tp(2, 1).pp(4, 2).dp(1, 2).build().unwrap(),
            Parallelism::builder().pp(8, 1).dp(1, 4).build().unwrap(),
        ] {
            let est = Estimator::new(&m, &a, &sys, &p)
                .with_efficiency(EfficiencyModel::saturating(0.95, 4.0, 0.25, 0.95))
                .with_options(EngineOptions {
                    stage_imbalance_correction: true,
                    ..Default::default()
                });
            let mut cache = EstimateCache::new();
            let lb = est.compute_lower_bound(&mut cache, &training).unwrap();
            let full = est.estimate_cached(&mut cache, &training).unwrap();
            assert!(
                lb.get() <= full.total_time.get(),
                "lb {} > total {} for {p:?}",
                lb.get(),
                full.total_time.get()
            );
            assert!(lb.get() > 0.0);
        }
    }

    #[test]
    fn lower_bound_tp_floor_matches_estimate_terms_bitwise() {
        // With pp = 1 the imbalance correction is off, so the bound's
        // compute terms match the estimate's bitwise — and the TP floor
        // repeats the estimate's own accumulation, so the whole bound is
        // reconstructable from the breakdown, exactly.
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let training = TrainingConfig::new(256, 7).unwrap();
        let p = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        let est = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let mut cache = EstimateCache::new();
        let lb = est.compute_lower_bound(&mut cache, &training).unwrap();
        let full = est.estimate_cached(&mut cache, &training).unwrap();
        let b = &full.breakdown;
        let expect =
            (b.compute_total() + (b.tp_comm_intra + b.tp_comm_inter)) * 7.0;
        assert_eq!(lb.get().to_bits(), expect.to_bits());
        // The floor genuinely tightens the old compute-only bound.
        assert!(b.tp_comm_intra > 0.0);
        assert!(lb.get() > b.compute_total() * 7.0);
        assert!(lb.get() <= full.total_time.get());
    }

    #[test]
    fn lower_bound_equals_compute_when_no_communication() {
        let m = dense_model();
        let a = accel();
        let sys = system(1, 1);
        let p = Parallelism::single();
        let training = TrainingConfig::new(32, 4).unwrap();
        let est = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let mut cache = EstimateCache::new();
        let lb = est.compute_lower_bound(&mut cache, &training).unwrap();
        let full = est.estimate_cached(&mut cache, &training).unwrap();
        // Single worker: no comms, no bubble, imbalance off — the bound is
        // the whole answer.
        assert_eq!(lb.get().to_bits(), full.total_time.get().to_bits());
    }

    #[test]
    fn lower_bound_rejects_invalid_mappings() {
        let m = dense_model();
        let a = accel();
        let sys = system(1, 8);
        let p = Parallelism::builder().tp(4, 1).build().unwrap(); // 4 != 8
        let mut cache = EstimateCache::new();
        assert!(Estimator::new(&m, &a, &sys, &p)
            .compute_lower_bound(&mut cache, &TrainingConfig::new(8, 1).unwrap())
            .is_err());
    }
}
