//! The automated explanation pipeline (Sec. 4.4).
//!
//! One [`ExplanationPipeline`] is built per deployed knowledge-graph
//! application: it runs the structural analysis, generates deterministic
//! and fluent explanation templates once, optionally passes them through
//! an [`Enhancer`] under the anti-omission check, and then answers
//! *explanation queries* Q_e for any fact derived by a chase run — without
//! ever exposing instance data to the enhancer.
//!
//! The once-per-application build product lives in
//! [`ProgramArtifacts`] and is
//! memoized by the process-wide
//! [`ArtifactCache`](crate::artifacts::ArtifactCache): building a second
//! pipeline for the same `(program, goal, glossary, analysis)` deployment
//! reuses the shared artifacts instead of re-running the analysis. The
//! pipeline itself is a thin handle — shared artifacts plus the
//! per-instance derivation policy.

use crate::artifacts::{ArtifactsBuilder, ProgramArtifacts};
use crate::enhance::Enhancer;
use crate::error::ExplainError;
use crate::glossary::DomainGlossary;
use crate::structural::{AnalysisConfig, StructuralAnalysis};
use crate::template::Template;
use std::sync::Arc;
use vadalog::obs::JsonWriter;
use vadalog::telemetry::RunGuard;
use vadalog::{
    ChaseConfig, ChaseError, ChaseOutcome, ChaseSession, DerivationPolicy, Fact, FactId, Program,
};

/// Which template flavour an explanation query uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TemplateFlavor {
    /// The deterministic rule-by-rule templates (verbose, complete).
    Deterministic,
    /// The enhanced templates (fluent, token-checked; the default).
    #[default]
    Enhanced,
}

/// An answered explanation query.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The explained fact.
    pub fact: Fact,
    /// The natural-language explanation.
    pub text: String,
    /// Labels of the reasoning paths composed (e.g. `["{o1,o3}", "{o3}*"]`).
    pub paths: Vec<String>,
    /// Length of the explained inference in chase steps.
    pub chase_steps: usize,
    /// All facts supporting the explanation (the proof's premises and
    /// conclusions), for front ends that render the matching KG fragment
    /// next to the text (cf. the study's visualizations).
    pub support: Vec<Fact>,
}

/// Pipeline construction statistics (template generation telemetry).
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Number of reasoning paths (including dashed variants).
    pub paths: usize,
    /// Enhancement fallbacks (templates kept deterministic because every
    /// enhancement attempt lost tokens).
    pub enhancement_fallbacks: usize,
    /// Total enhancement retries performed.
    pub enhancement_retries: u32,
}

/// Telemetry of one pipeline construction: per-stage wall-clock timings
/// plus the template-generation counters, the explanation-side companion
/// of the engine's [`RunReport`](vadalog::telemetry::RunReport).
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PipelineReport {
    /// Structural analysis (path enumeration) time, nanoseconds.
    pub analysis_ns: u64,
    /// Template generation time (deterministic + fluent), nanoseconds.
    pub template_ns: u64,
    /// Enhancement time (including anti-omission retries), nanoseconds.
    pub enhance_ns: u64,
    /// Per-rule fallback-template generation time, nanoseconds.
    pub fallback_ns: u64,
    /// Whole construction, nanoseconds.
    pub total_ns: u64,
    /// Number of reasoning paths (including dashed variants).
    pub paths: u64,
    /// Templates generated per flavour.
    pub templates: u64,
    /// Total enhancement retries performed.
    pub enhancement_retries: u64,
    /// Templates that fell back to the fluent deterministic generation.
    pub enhancement_fallbacks: u64,
}

impl PipelineReport {
    /// Serializes the report as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_u64("analysis_ns", self.analysis_ns);
        w.field_u64("template_ns", self.template_ns);
        w.field_u64("enhance_ns", self.enhance_ns);
        w.field_u64("fallback_ns", self.fallback_ns);
        w.field_u64("total_ns", self.total_ns);
        w.field_u64("paths", self.paths);
        w.field_u64("templates", self.templates);
        w.field_u64("enhancement_retries", self.enhancement_retries);
        w.field_u64("enhancement_fallbacks", self.enhancement_fallbacks);
        w.close_object();
        w.finish()
    }
}

/// Fluent configuration of an [`ExplanationPipeline`], mirroring the
/// engine's [`ChaseSession`] builder: start from
/// [`ExplanationPipeline::builder`], chain setters, [`build`](Self::build).
///
/// ```no_run
/// # use explain::pipeline::ExplanationPipeline;
/// # use explain::glossary::DomainGlossary;
/// # let program: vadalog::Program = todo!();
/// # let glossary = DomainGlossary::new();
/// let pipeline = ExplanationPipeline::builder(program, "default")
///     .with_glossary(&glossary)
///     .build()?;
/// # Ok::<(), explain::ExplainError>(())
/// ```
#[derive(Debug)]
pub struct PipelineBuilder<'a> {
    inner: ArtifactsBuilder<'a>,
    policy: DerivationPolicy,
}

impl<'a> PipelineBuilder<'a> {
    /// Attaches the domain glossary used for verbalization (default:
    /// empty, yielding raw-atom renderings).
    pub fn with_glossary(mut self, glossary: &'a DomainGlossary) -> PipelineBuilder<'a> {
        self.inner = self.inner.with_glossary(glossary);
        self
    }

    /// Passes each fluent template through `enhancer` under the
    /// token-completeness check, with at most `max_retries` attempts per
    /// template before falling back to the fluent deterministic
    /// generation.
    pub fn with_enhancer(
        mut self,
        enhancer: &'a dyn Enhancer,
        max_retries: u32,
    ) -> PipelineBuilder<'a> {
        self.inner = self.inner.with_enhancer(enhancer, max_retries);
        self
    }

    /// Overrides the derivation-selection policy (default: richest).
    pub fn with_policy(mut self, policy: DerivationPolicy) -> PipelineBuilder<'a> {
        self.policy = policy;
        self
    }

    /// Governs the construction with a deadline and/or cancellation token
    /// (round/fact budgets do not apply here). A trip surfaces as
    /// [`ExplainError::ResourceExhausted`].
    pub fn with_guard(mut self, guard: RunGuard) -> PipelineBuilder<'a> {
        self.inner = self.inner.with_guard(guard);
        self
    }

    /// Overrides the structural-analysis configuration (path caps).
    pub fn with_analysis_config(mut self, config: AnalysisConfig) -> PipelineBuilder<'a> {
        self.inner = self.inner.with_analysis_config(config);
        self
    }

    /// Builds the pipeline: structural analysis, template generation,
    /// optional enhancement, per-rule fallbacks.
    ///
    /// The build goes through the process-wide
    /// [`ArtifactCache`](crate::artifacts::ArtifactCache): repeated
    /// builds of the same deployment share one artifact edition and skip
    /// the analysis entirely. Builds with an enhancer or a non-default
    /// guard stay private (their semantics cannot be keyed).
    pub fn build(self) -> Result<ExplanationPipeline, ExplainError> {
        Ok(ExplanationPipeline {
            artifacts: self.inner.build_cached()?,
            policy: self.policy,
        })
    }
}

/// The per-application explanation pipeline: shared
/// [`ProgramArtifacts`] plus the per-instance derivation policy.
#[derive(Clone, Debug)]
pub struct ExplanationPipeline {
    artifacts: Arc<ProgramArtifacts>,
    policy: DerivationPolicy,
}

impl ExplanationPipeline {
    /// Starts a [`PipelineBuilder`] for `program` and the goal predicate.
    pub fn builder<'a>(program: Program, goal: &str) -> PipelineBuilder<'a> {
        PipelineBuilder {
            inner: ProgramArtifacts::builder(program, goal),
            policy: DerivationPolicy::Richest,
        }
    }

    /// Wraps already-built artifacts (e.g. obtained from the
    /// [`ArtifactCache`](crate::artifacts::ArtifactCache)) with the
    /// default policy.
    pub fn from_artifacts(artifacts: Arc<ProgramArtifacts>) -> ExplanationPipeline {
        ExplanationPipeline {
            artifacts,
            policy: DerivationPolicy::Richest,
        }
    }

    /// The shared artifacts backing this pipeline.
    pub fn artifacts(&self) -> &Arc<ProgramArtifacts> {
        &self.artifacts
    }

    /// The program driving the pipeline.
    pub fn program(&self) -> &Program {
        self.artifacts.program()
    }

    /// The structural analysis (reasoning paths).
    pub fn analysis(&self) -> &StructuralAnalysis {
        self.artifacts.analysis()
    }

    /// A chase configuration restricted to the goal's relevance cone
    /// (see [`ProgramArtifacts::pruned_chase_config`]).
    pub fn pruned_chase_config(&self) -> vadalog::ChaseConfig {
        self.artifacts.pruned_chase_config()
    }

    /// The generated templates of the given flavour, one per path.
    pub fn templates(&self, flavor: TemplateFlavor) -> &[Template] {
        self.artifacts.templates(flavor)
    }

    /// Construction statistics.
    pub fn stats(&self) -> &PipelineStats {
        self.artifacts.stats()
    }

    /// Construction telemetry: stage timings plus template counters
    /// (`report()` is the business-report query; this is the observability
    /// companion of [`vadalog::telemetry::RunReport`]).
    pub fn telemetry(&self) -> &PipelineReport {
        self.artifacts.telemetry()
    }

    /// Replaces the enhanced template at `index` with `text`, enforcing
    /// the token-completeness check. On failure returns the missing token
    /// display names and keeps the previous template (used by the
    /// human-in-the-loop review of [`crate::review`]).
    ///
    /// When the artifacts are shared (cache hit, clones), this
    /// copy-on-writes a private edition first — other holders keep the
    /// unedited templates.
    pub fn replace_enhanced_template(
        &mut self,
        index: usize,
        text: &str,
    ) -> Result<(), Vec<String>> {
        Arc::make_mut(&mut self.artifacts).replace_enhanced_template(index, text)
    }

    /// Produces the *business report* of a chase run: one explanation per
    /// derived fact of the goal predicate, in derivation order — the
    /// "natural language business reports" the paper's applications feed
    /// to compliance staff and auditors (Sec. 5).
    pub fn report(
        &self,
        outcome: &ChaseOutcome,
        flavor: TemplateFlavor,
    ) -> Result<Vec<Explanation>, ExplainError> {
        self.artifacts.report(outcome, flavor, self.policy)
    }

    /// Renders a report as a plain-text document with one section per
    /// explained fact.
    pub fn render_report(
        &self,
        outcome: &ChaseOutcome,
        flavor: TemplateFlavor,
    ) -> Result<String, ExplainError> {
        let explanations = self.report(outcome, flavor)?;
        let mut out = String::new();
        out.push_str(&format!(
            "Business report — {} derived {} fact(s)\n\n",
            explanations.len(),
            self.analysis().goal
        ));
        for (i, e) in explanations.iter().enumerate() {
            out.push_str(&format!(
                "{}. {} ({} inference steps)\n{}\n\n",
                i + 1,
                e.fact,
                e.chase_steps,
                e.text
            ));
        }
        Ok(out)
    }

    /// Restores a chase outcome from a checkpoint snapshot on disk so the
    /// pipeline can answer explanation queries over a run that was
    /// interrupted (autosave, guard trip, worker panic) or simply archived.
    ///
    /// A snapshot of a completed run loads as-is; a partial one is carried
    /// to fixpoint under `config` via
    /// [`ChaseSession::resume_from_path`](vadalog::ChaseSession::resume_from_path),
    /// reaching the state an uninterrupted run would have produced. Load
    /// and resume failures surface as [`ExplainError::Restore`] (with the
    /// precise [`CheckpointError`](vadalog::CheckpointError) rendered into
    /// the detail); a budget trip during the resume surfaces as
    /// [`ExplainError::ResourceExhausted`].
    pub fn restore_outcome(
        &self,
        path: impl AsRef<std::path::Path>,
        config: ChaseConfig,
    ) -> Result<ChaseOutcome, ExplainError> {
        ChaseSession::new(self.program())
            .with_config(config)
            .resume_from_path(path)
            .map_err(|e| match e {
                ChaseError::ResourceExhausted {
                    budget, observed, ..
                } => ExplainError::ResourceExhausted { budget, observed },
                other => ExplainError::Restore {
                    detail: other.to_string(),
                },
            })
    }

    /// Answers the explanation query Q_e = {fact} with enhanced templates.
    pub fn explain(
        &self,
        outcome: &ChaseOutcome,
        fact: &Fact,
    ) -> Result<Explanation, ExplainError> {
        self.explain_with(outcome, fact, TemplateFlavor::Enhanced)
    }

    /// Answers the explanation query with an explicit template flavour.
    pub fn explain_with(
        &self,
        outcome: &ChaseOutcome,
        fact: &Fact,
        flavor: TemplateFlavor,
    ) -> Result<Explanation, ExplainError> {
        self.artifacts
            .explain_fact(outcome, fact, flavor, self.policy)
    }

    /// Answers the explanation query for a fact id.
    ///
    /// The proof spine is covered by one simple path plus cycles
    /// (Sec. 4.3). Side branches of the proof (e.g. the second ownership
    /// branch of a joint control, or the second channel of a two-channel
    /// cascade) that are not absorbed by a selected path are explained
    /// recursively and prepended as preconditions, so the explanation
    /// contains *every* constant of the proof — the completeness guarantee
    /// of Sec. 6.3.
    pub fn explain_id(
        &self,
        outcome: &ChaseOutcome,
        id: FactId,
        flavor: TemplateFlavor,
    ) -> Result<Explanation, ExplainError> {
        self.artifacts.explain_id(outcome, id, flavor, self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glossary::{GlossaryEntry, ValueFormat};
    use vadalog::telemetry::Budget;
    use vadalog::{parse_program, ChaseSession, Database};

    /// Example 4.3 with the Fig. 8 EDB and the Fig. 7 glossary.
    fn setup() -> (ExplanationPipeline, ChaseOutcome) {
        let parsed = parse_program(
            r#"
            alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            beta: default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
            gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).

            shock("A", 6).
            has_capital("A", 5).
            debts("A", "B", 7).
            has_capital("B", 2).
            debts("B", "C", 2).
            debts("B", "C", 9).
            has_capital("C", 10).
        "#,
        )
        .unwrap();
        let glossary = DomainGlossary::new()
            .with(GlossaryEntry::new(
                "has_capital",
                &[("f", ValueFormat::Plain), ("p", ValueFormat::MillionsEuro)],
                "<f> is a financial institution with capital of <p>",
            ))
            .with(GlossaryEntry::new(
                "shock",
                &[("f", ValueFormat::Plain), ("s", ValueFormat::MillionsEuro)],
                "a shock amounting to <s> affects <f>",
            ))
            .with(GlossaryEntry::new(
                "default",
                &[("f", ValueFormat::Plain)],
                "<f> is in default",
            ))
            .with(GlossaryEntry::new(
                "debts",
                &[
                    ("d", ValueFormat::Plain),
                    ("c", ValueFormat::Plain),
                    ("v", ValueFormat::MillionsEuro),
                ],
                "<d> has an amount <v> of debts with <c>",
            ))
            .with(GlossaryEntry::new(
                "risk",
                &[("c", ValueFormat::Plain), ("e", ValueFormat::MillionsEuro)],
                "<c> is at risk of defaulting given its loan of <e> of exposures to a defaulted debtor",
            ));
        let pipeline = ExplanationPipeline::builder(parsed.program.clone(), "default")
            .with_glossary(&glossary)
            .build()
            .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let outcome = ChaseSession::new(&parsed.program).run(db).unwrap();
        (pipeline, outcome)
    }

    #[test]
    fn restore_outcome_reloads_a_snapshot_and_reports_failures() {
        let (pipeline, outcome) = setup();
        let dir = std::env::temp_dir().join("explain-restore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("outcome.ckpt");
        ChaseSession::new(pipeline.program())
            .checkpoint_to(&outcome, &path)
            .unwrap();

        // The restored outcome answers the same explanation queries.
        let restored = pipeline
            .restore_outcome(&path, ChaseConfig::default())
            .unwrap();
        let q = Fact::new("default", vec!["C".into()]);
        let from_restored = pipeline.explain(&restored, &q).unwrap();
        let from_original = pipeline.explain(&outcome, &q).unwrap();
        assert_eq!(from_restored.text, from_original.text);

        // A damaged snapshot surfaces as a Restore error naming the cause.
        std::fs::write(&path, b"not a checkpoint").unwrap();
        match pipeline.restore_outcome(&path, ChaseConfig::default()) {
            Err(ExplainError::Restore { detail }) => {
                assert!(detail.contains("checkpoint load failed"), "{detail}");
            }
            other => panic!("expected ExplainError::Restore, got {other:?}"),
        }
    }

    #[test]
    fn example_4_8_explanation_content() {
        let (pipeline, outcome) = setup();
        let q = Fact::new("default", vec!["C".into()]);
        let e = pipeline.explain(&outcome, &q).unwrap();
        // The explanation of Example 4.8 mentions: the 6M shock on A, A's
        // 5M capital, the 7M debt to B, B's 2M capital, the 2M and 9M
        // loans, the 11M total, and C's 10M capital.
        for needle in [
            "6M euros",
            "5M euros",
            "7M euros",
            "2M euros",
            "9M euros",
            "11M euros",
            "10M euros",
            "A",
            "B",
            "C",
        ] {
            assert!(e.text.contains(needle), "missing {needle} in: {}", e.text);
        }
        assert_eq!(e.chase_steps, 5);
        assert_eq!(e.paths.len(), 2);
        // The support spans the whole Fig. 8 proof: 7 EDB + 5 derived.
        assert_eq!(e.support.len(), 12);
        // Π2 then the dashed cycle.
        assert_eq!(e.paths[0], "{alpha,beta,gamma}");
        assert_eq!(e.paths[1], "{beta,gamma}*");
        assert!(!e.text.contains('<'), "unsubstituted token: {}", e.text);
    }

    #[test]
    fn deterministic_flavor_is_more_verbose() {
        let (pipeline, outcome) = setup();
        let q = Fact::new("default", vec!["C".into()]);
        let det = pipeline
            .explain_with(&outcome, &q, TemplateFlavor::Deterministic)
            .unwrap();
        let enh = pipeline
            .explain_with(&outcome, &q, TemplateFlavor::Enhanced)
            .unwrap();
        assert!(det.text.len() > enh.text.len());
    }

    #[test]
    fn extensional_facts_are_rejected() {
        let (pipeline, outcome) = setup();
        let q = Fact::new("shock", vec!["A".into(), 6i64.into()]);
        let id = outcome.lookup(&q).unwrap();
        assert!(matches!(
            pipeline.explain_id(&outcome, id, TemplateFlavor::Enhanced),
            Err(ExplainError::ExtensionalFact(_))
        ));
    }

    #[test]
    fn unknown_facts_are_rejected() {
        let (pipeline, outcome) = setup();
        let q = Fact::new("default", vec!["ZZZ".into()]);
        assert!(matches!(
            pipeline.explain(&outcome, &q),
            Err(ExplainError::UnknownFact(_))
        ));
    }

    #[test]
    fn all_derived_defaults_are_explainable() {
        let (pipeline, outcome) = setup();
        for (id, fact) in outcome.facts_of("default") {
            if !outcome.graph.is_derived(id) {
                continue;
            }
            let e = pipeline
                .explain_id(&outcome, id, TemplateFlavor::Enhanced)
                .unwrap_or_else(|err| panic!("explaining {fact}: {err}"));
            assert!(!e.text.is_empty());
            assert!(!e.text.contains('<'), "{}: {}", fact, e.text);
        }
    }

    #[test]
    fn report_covers_all_derived_goal_facts() {
        let (pipeline, outcome) = setup();
        let report = pipeline.report(&outcome, TemplateFlavor::Enhanced).unwrap();
        // Defaults of A, B and C.
        assert_eq!(report.len(), 3);
        let rendered = pipeline
            .render_report(&outcome, TemplateFlavor::Enhanced)
            .unwrap();
        assert!(rendered.starts_with("Business report — 3 derived default fact(s)"));
        for entity in ["\"A\"", "\"B\"", "\"C\""] {
            assert!(rendered.contains(entity), "{rendered}");
        }
    }

    #[test]
    fn pipeline_exposes_templates_and_stats() {
        let (pipeline, _) = setup();
        assert_eq!(pipeline.stats().paths, pipeline.analysis().paths.len());
        assert_eq!(
            pipeline.templates(TemplateFlavor::Deterministic).len(),
            pipeline.templates(TemplateFlavor::Enhanced).len()
        );
        // Stats: built-in fluent generation never falls back.
        assert_eq!(pipeline.stats().enhancement_fallbacks, 0);
    }

    #[test]
    fn telemetry_reports_stage_timings_and_counters() {
        let (pipeline, _) = setup();
        let report = pipeline.telemetry();
        assert_eq!(report.paths, pipeline.analysis().paths.len() as u64);
        assert_eq!(
            report.templates,
            pipeline.templates(TemplateFlavor::Enhanced).len() as u64
        );
        assert_eq!(report.enhancement_fallbacks, 0);
        // No enhancer configured: the enhancement stage never ran.
        assert_eq!(report.enhance_ns, 0);
        assert!(report.total_ns >= report.analysis_ns);
        let json = report.to_json();
        assert!(json.contains("\"analysis_ns\":"), "{json}");
        assert!(json.contains("\"templates\":"), "{json}");
    }

    #[test]
    fn cancelled_guard_preempts_the_build() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let token = vadalog::CancelToken::new();
        token.cancel();
        let err = ExplanationPipeline::builder(parsed.program, "reach")
            .with_guard(vadalog::RunGuard::new().with_cancel_token(token))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ExplainError::ResourceExhausted {
                budget: Budget::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn elapsed_deadline_preempts_the_build() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let err = ExplanationPipeline::builder(parsed.program, "reach")
            .with_guard(vadalog::RunGuard::new().with_timeout(std::time::Duration::ZERO))
            .build()
            .unwrap_err();
        match err {
            ExplainError::ResourceExhausted { budget, .. } => {
                assert_eq!(budget, Budget::Deadline(std::time::Duration::ZERO));
            }
            other => panic!("expected a deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn builder_is_deterministic_across_builds() {
        let parsed = parse_program(
            r#"
            alpha: edge(x, y) -> reach(x, y).
            beta: reach(x, y), edge(y, z) -> reach(x, z).
            "#,
        )
        .unwrap();
        let glossary = DomainGlossary::new();
        let a = ExplanationPipeline::builder(parsed.program.clone(), "reach")
            .with_glossary(&glossary)
            .build()
            .unwrap();
        let b = ExplanationPipeline::builder(parsed.program, "reach")
            .with_glossary(&glossary)
            .build()
            .unwrap();
        let rendered = |p: &ExplanationPipeline| -> Vec<String> {
            p.templates(TemplateFlavor::Enhanced)
                .iter()
                .map(Template::render)
                .collect()
        };
        assert_eq!(rendered(&a), rendered(&b));
        assert_eq!(a.stats().paths, b.stats().paths);
        // Equal-deployment builds share one artifact edition.
        assert!(Arc::ptr_eq(a.artifacts(), b.artifacts()));
    }

    #[test]
    fn builder_without_glossary_uses_raw_atom_rendering() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let pipeline = ExplanationPipeline::builder(parsed.program, "reach")
            .build()
            .unwrap();
        assert!(!pipeline.templates(TemplateFlavor::Enhanced).is_empty());
    }

    #[test]
    fn template_edits_copy_on_write_shared_artifacts() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let glossary = DomainGlossary::new();
        let a = ExplanationPipeline::builder(parsed.program.clone(), "reach")
            .with_glossary(&glossary)
            .build()
            .unwrap();
        let mut b = ExplanationPipeline::builder(parsed.program, "reach")
            .with_glossary(&glossary)
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(a.artifacts(), b.artifacts()));
        let original = a.templates(TemplateFlavor::Enhanced)[0].render();
        let edited = format!("Edited: {original}");
        b.replace_enhanced_template(0, &edited).unwrap();
        // The edit is private to `b`; `a` (and the cache) keep the original.
        assert!(!Arc::ptr_eq(a.artifacts(), b.artifacts()));
        assert_eq!(a.templates(TemplateFlavor::Enhanced)[0].render(), original);
        assert_eq!(b.templates(TemplateFlavor::Enhanced)[0].render(), edited);
    }
}
