//! Per-loop and corpus-level reports: JSON lines plus a readable digest.
//!
//! One [`LoopReport`] joins the three evidence sources for a loop — the
//! MII attribution, the mined trace, and (optionally) proved II bounds
//! from an `optgap` run — and renders them as a flat JSON line (for
//! machine consumption, byte-deterministic) and as text (for the top-K
//! pathological-loop digest). [`CorpusStats`] folds loop reports into the
//! aggregate the `explain` driver prints: how many loops each bound
//! explains, where the wasted budget concentrates, and which resources
//! and circuits bind most often.

use std::collections::BTreeMap;

use ims_graph::NodeId;
use ims_machine::MachineModel;
use ims_prof::json::{self, Value};

use crate::mii::{MiiAttribution, MiiBound};
use crate::mine::TraceMine;

/// Everything the `explain` driver reports about one loop.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Stable loop label (`loop_00042`).
    pub label: String,
    /// Real-operation count.
    pub ops: usize,
    /// Why the MII is what it is.
    pub attribution: MiiAttribution,
    /// Where the scheduling budget went.
    pub mine: TraceMine,
    /// Proved `(lower, upper)` II bounds from an `optgap` run, when one
    /// was supplied.
    pub bounds: Option<(i64, i64)>,
}

fn ids(nodes: &[NodeId]) -> String {
    let inner: Vec<String> = nodes.iter().map(|n| n.index().to_string()).collect();
    format!("[{}]", inner.join(","))
}

fn strs(names: &[&str]) -> String {
    let inner: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!("[{}]", inner.join(","))
}

impl LoopReport {
    /// The II the scheduler converged to, if it did.
    pub fn final_ii(&self) -> Option<i64> {
        self.mine.summary.final_ii()
    }

    /// `II − MII`: how far above the lower bound the schedule landed.
    pub fn mii_gap(&self) -> Option<i64> {
        self.final_ii().map(|ii| ii - self.attribution.mii)
    }

    /// `II − proved upper bound`: the true optimality gap, when an
    /// `optgap` run proved the bounds (`lb == ub`).
    pub fn proved_gap(&self) -> Option<i64> {
        let (lb, ub) = self.bounds?;
        if lb != ub {
            return None;
        }
        Some(self.final_ii()? - ub)
    }

    /// One flat JSON object (no trailing newline), deterministic for a
    /// given loop regardless of thread count.
    pub fn to_json_line(&self, machine: &MachineModel) -> String {
        let att = &self.attribution;
        let summary = &self.mine.summary;
        let mut out = format!(
            "{{\"loop\":\"{}\",\"ops\":{},\"mii\":{},\"res_mii\":{},\"rec_mii\":{},\
             \"bound\":\"{}\",\"binding_res\":{}",
            self.label,
            self.ops,
            att.mii,
            att.res.res_mii,
            att.rec.rec_mii,
            att.bound.name(),
            strs(&att.res.binding_names(machine)),
        );
        out.push_str(&format!(",\"scc\":{}", ids(&att.rec.scc)));
        if let Some(c) = &att.rec.circuit {
            out.push_str(&format!(
                ",\"circuit\":{},\"circuit_delay\":{},\"circuit_distance\":{}",
                ids(&c.nodes),
                c.delay,
                c.distance,
            ));
        }
        out.push_str(&format!(
            ",\"critical\":{},\"circuits_truncated\":{}",
            ids(&att.rec.critical),
            att.rec.circuits_truncated,
        ));
        match self.final_ii() {
            Some(ii) => out.push_str(&format!(
                ",\"ii\":{ii},\"gap\":{}",
                ii - att.mii
            )),
            None => out.push_str(",\"ii\":null,\"gap\":null"),
        }
        out.push_str(&format!(
            ",\"steps\":{},\"wasted\":{},\"evictions\":{},\"slots\":{},\"max_chain\":{}",
            summary.total_steps(),
            summary.wasted_steps(),
            summary.evictions,
            summary.slots_examined,
            self.mine.max_chain,
        ));
        if let Some((lb, ub)) = self.bounds {
            out.push_str(&format!(",\"exact_lb\":{lb},\"exact_ub\":{ub}"));
        }
        out.push('}');
        out
    }

    /// A multi-line human-readable explanation, used for the top-K digest.
    pub fn render_text(&self, machine: &MachineModel) -> String {
        let att = &self.attribution;
        let mut out = format!(
            "{}: {} ops, MII {} (res {}, rec {})\n",
            self.label, self.ops, att.mii, att.res.res_mii, att.rec.rec_mii
        );
        match att.bound {
            MiiBound::Resource | MiiBound::Tie => {
                out.push_str(&format!(
                    "  binding resource{}: {}\n",
                    if att.res.binding.len() == 1 { "" } else { "s" },
                    att.res.binding_names(machine).join(", "),
                ));
            }
            MiiBound::Recurrence => {}
        }
        if matches!(att.bound, MiiBound::Recurrence | MiiBound::Tie) && !att.rec.scc.is_empty() {
            match &att.rec.circuit {
                Some(c) => out.push_str(&format!(
                    "  critical circuit: {} (delay {}, distance {}, ceil = {})\n",
                    ids(&c.nodes),
                    c.delay,
                    c.distance,
                    c.min_ii(),
                )),
                None => out.push_str(&format!(
                    "  critical SCC (circuits truncated): {} critical nodes {}\n",
                    ids(&att.rec.scc),
                    ids(&att.rec.critical),
                )),
            }
        }
        out.push_str(&self.mine.summary.render_line("  convergence"));
        out.push('\n');
        if let Some(e) = self.mine.eviction_edges.first() {
            out.push_str(&format!(
                "  hottest eviction: n{} evicted n{} ×{} (longest chain {})\n",
                e.evictor, e.victim, e.count, self.mine.max_chain,
            ));
        }
        if let Some((lb, ub)) = self.bounds {
            let proved = if lb == ub {
                format!("II* = {ub} proved")
            } else {
                format!("II* in [{lb}, {ub}]")
            };
            out.push_str(&format!("  exact bounds: {proved}\n"));
        }
        out
    }
}

/// Corpus-level aggregation of [`LoopReport`]s.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Loops folded in.
    pub loops: u64,
    /// Loops whose MII is resource-bound (`ResMII > RecMII`).
    pub res_bound: u64,
    /// Loops whose MII is recurrence-bound (`RecMII > ResMII`).
    pub rec_bound: u64,
    /// Loops where both bounds agree.
    pub tie_bound: u64,
    /// Loops that converged above their MII.
    pub gap_loops: u64,
    /// Summed `II − MII` over converged loops.
    pub gap_sum: i64,
    /// Total scheduling steps across the corpus.
    pub steps: u64,
    /// Total wasted (failed-attempt) steps.
    pub wasted: u64,
    /// Total evictions.
    pub evictions: u64,
    /// Total `FindTimeSlot` iterations.
    pub slots: u64,
    /// Loops whose circuit enumeration was truncated.
    pub circuits_truncated: u64,
    /// Wasted steps per loop label (insertion order), for concentration
    /// analysis.
    pub wasted_by_loop: Vec<(String, u64)>,
    /// How often each resource appears in a binding set, over loops
    /// whose MII is resource-bound or tied.
    pub binding_res_counts: BTreeMap<String, u64>,
}

impl CorpusStats {
    /// Folds one loop in.
    pub fn add(&mut self, report: &LoopReport, machine: &MachineModel) {
        self.loops += 1;
        match report.attribution.bound {
            MiiBound::Resource => self.res_bound += 1,
            MiiBound::Recurrence => self.rec_bound += 1,
            MiiBound::Tie => self.tie_bound += 1,
        }
        if let Some(gap) = report.mii_gap() {
            if gap > 0 {
                self.gap_loops += 1;
            }
            self.gap_sum += gap;
        }
        let s = &report.mine.summary;
        self.steps += s.total_steps();
        self.wasted += s.wasted_steps();
        self.evictions += s.evictions;
        self.slots += s.slots_examined;
        if report.attribution.rec.circuits_truncated {
            self.circuits_truncated += 1;
        }
        self.wasted_by_loop
            .push((report.label.clone(), s.wasted_steps()));
        if matches!(
            report.attribution.bound,
            MiiBound::Resource | MiiBound::Tie
        ) {
            for name in report.attribution.res.binding_names(machine) {
                *self.binding_res_counts.entry(name.to_string()).or_insert(0) += 1;
            }
        }
    }

    /// The `k` loops with the most wasted steps, descending (ties to the
    /// lexicographically smaller label). Zero-waste loops are omitted.
    pub fn top_wasted(&self, k: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .wasted_by_loop
            .iter()
            .filter(|(_, w)| *w > 0)
            .cloned()
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// `(top-k wasted steps, total wasted steps)` — the waste
    /// concentration the paper's reproduction keeps rediscovering by
    /// hand: a handful of pathological loops account for almost all
    /// wasted budget.
    pub fn concentration(&self, k: usize) -> (u64, u64) {
        let top: u64 = self.top_wasted(k).iter().map(|(_, w)| w).sum();
        (top, self.wasted)
    }

    /// The aggregate JSON line (no trailing newline).
    pub fn to_json_line(&self, top_k: usize) -> String {
        let (top, total) = self.concentration(top_k);
        let mut out = format!(
            "{{\"loops\":{},\"bound_res\":{},\"bound_rec\":{},\"bound_tie\":{},\
             \"gap_loops\":{},\"gap_sum\":{},\"steps\":{},\"wasted\":{},\
             \"evictions\":{},\"slots\":{},\"circuits_truncated\":{},\
             \"top_k\":{},\"top_wasted\":{},\"wasted_total\":{}",
            self.loops,
            self.res_bound,
            self.rec_bound,
            self.tie_bound,
            self.gap_loops,
            self.gap_sum,
            self.steps,
            self.wasted,
            self.evictions,
            self.slots,
            self.circuits_truncated,
            top_k,
            top,
            total,
        );
        let binding: Vec<String> = self
            .binding_res_counts
            .iter()
            .map(|(name, count)| format!("\"{name}\":{count}"))
            .collect();
        out.push_str(&format!(",\"binding_res\":{{{}}}}}", binding.join(",")));
        out
    }
}

/// Extracts the per-loop proved bounds from an `optgap` run's stdout:
/// loop index → `(exact_lb, exact_ub)`. The aggregate line (which has no
/// `"loop"` field) and anything unparsable is skipped.
pub fn parse_optgap_bounds(text: &str) -> BTreeMap<usize, (i64, i64)> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Ok(v) = json::parse(line) else { continue };
        let int = |key: &str| v.get(key).and_then(Value::as_i64);
        if let (Some(idx), Some(lb), Some(ub)) = (int("loop"), int("exact_lb"), int("exact_ub")) {
            out.insert(idx as usize, (lb, ub));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mii::attribute_mii;
    use ims_core::{Counters, ProblemBuilder, Scheduler};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::minimal;
    use ims_trace::Recorder;

    fn sample_report(bounds: Option<(i64, i64)>) -> (LoopReport, MachineModel) {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mut rec = Recorder::new();
        Scheduler::new(&p).observer(&mut rec).run().unwrap();
        let report = LoopReport {
            label: "loop_00000".into(),
            ops: p.num_ops(),
            attribution: attribute_mii(&p, 1000, &mut Counters::new()),
            mine: TraceMine::from_events(&rec.events),
            bounds,
        };
        (report, m)
    }

    #[test]
    fn json_line_carries_the_attribution() {
        let (r, m) = sample_report(Some((2, 2)));
        let line = r.to_json_line(&m);
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"loop\":\"loop_00000\""), "{line}");
        assert!(line.contains("\"bound\":\"tie\""), "{line}");
        assert!(line.contains("\"circuit\":[1,2]"), "{line}");
        assert!(line.contains("\"circuit_delay\":2"), "{line}");
        assert!(line.contains("\"exact_lb\":2,\"exact_ub\":2"), "{line}");
        assert!(line.contains("\"binding_res\":[\"unit\""), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn gaps_are_computed_against_both_references() {
        let (r, _) = sample_report(Some((2, 2)));
        assert_eq!(r.final_ii(), Some(2));
        assert_eq!(r.mii_gap(), Some(0));
        assert_eq!(r.proved_gap(), Some(0));
        let (r, _) = sample_report(Some((2, 3)));
        assert_eq!(r.proved_gap(), None, "unproved bounds give no gap");
        let (r, _) = sample_report(None);
        assert_eq!(r.proved_gap(), None);
    }

    #[test]
    fn text_report_names_the_evidence() {
        let (r, m) = sample_report(Some((2, 2)));
        let text = r.render_text(&m);
        assert!(text.contains("MII 2 (res 2, rec 2)"), "{text}");
        assert!(text.contains("critical circuit: [1,2]"), "{text}");
        assert!(text.contains("binding resource"), "{text}");
        assert!(text.contains("II* = 2 proved"), "{text}");
    }

    #[test]
    fn corpus_stats_fold_and_concentrate() {
        let (r, m) = sample_report(None);
        let mut stats = CorpusStats::default();
        stats.add(&r, &m);
        stats.add(&r, &m);
        assert_eq!(stats.loops, 2);
        assert_eq!(stats.tie_bound, 2);
        assert_eq!(stats.steps, 2 * r.mine.summary.total_steps());
        let json = stats.to_json_line(10);
        assert!(json.contains("\"loops\":2"), "{json}");
        assert!(json.contains("\"bound_tie\":2"), "{json}");
        assert!(json.contains("\"binding_res\":{\"unit\":2}"), "{json}");
        // This loop schedules at its MII first try: nothing is wasted, so
        // nothing concentrates.
        assert_eq!(stats.concentration(1), (0, 0));
        assert!(stats.top_wasted(5).is_empty());
    }

    #[test]
    fn top_wasted_orders_and_truncates() {
        let mut stats = CorpusStats::default();
        stats.wasted_by_loop = vec![
            ("loop_b".into(), 5),
            ("loop_a".into(), 9),
            ("loop_c".into(), 0),
            ("loop_d".into(), 5),
        ];
        stats.wasted = 19;
        assert_eq!(
            stats.top_wasted(2),
            vec![("loop_a".to_string(), 9), ("loop_b".to_string(), 5)]
        );
        assert_eq!(stats.concentration(2), (14, 19));
    }

    #[test]
    fn optgap_bounds_parse_per_loop_lines_only() {
        let text = "\
{\"loop\":0,\"ops\":3,\"mii\":2,\"exact_lb\":2,\"exact_ub\":2,\"limit_hit\":false,\"nodes\":10,\"ii_b1\":2}\n\
{\"loop\":1,\"ops\":9,\"mii\":4,\"exact_lb\":4,\"exact_ub\":5,\"limit_hit\":true,\"nodes\":99,\"ii_b1\":5}\n\
{\"loops\":2,\"decided\":1,\"limit_hits\":1,\"gap_b1\":0,\"opt_b1\":1}\n";
        let bounds = parse_optgap_bounds(text);
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[&0], (2, 2));
        assert_eq!(bounds[&1], (4, 5));
        assert!(parse_optgap_bounds("garbage\n").is_empty());
    }
}
