//! The six workload profiles of Table I, as parameterizations of the
//! synthetic generator.
//!
//! Each profile tunes the generator toward its class's published
//! behaviour:
//!
//! * **OLTP** (TPC-C on DB2/Oracle): multi-MB footprint, deep call chains,
//!   skewed transaction mix, moderate interrupts. Oracle gets more
//!   data-dependent branches and indirect dispatch — the paper observes
//!   its access stream loses ~10% coverage to wrong-path noise (Fig. 2).
//! * **DSS** (TPC-H Q2/Q17 on DB2): scan/join loops dominate; few
//!   transaction types (query plans); high repetitiveness; fewer
//!   interrupts per instruction.
//! * **Web** (SPECweb99 on Apache/Zeus): very large flat footprint of
//!   small handler functions, rich transaction mix, frequent network
//!   interrupts — the class whose *miss* stream fragments worst (>20%
//!   coverage loss, Fig. 2).

use crate::executor::Executor;
use crate::params::GeneratorParams;
use crate::program::ProgramImage;
use crate::trace::Trace;
use pif_types::InstrFeed;

/// Workload class, as grouped in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Online transaction processing (TPC-C).
    Oltp,
    /// Decision support (TPC-H).
    Dss,
    /// Web serving (SPECweb99).
    Web,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadClass::Oltp => f.write_str("OLTP"),
            WorkloadClass::Dss => f.write_str("DSS"),
            WorkloadClass::Web => f.write_str("Web"),
        }
    }
}

/// A named, parameterized workload.
///
/// # Example
///
/// ```
/// use pif_workloads::{WorkloadClass, WorkloadProfile};
///
/// let apache = WorkloadProfile::web_apache();
/// assert_eq!(apache.class(), WorkloadClass::Web);
/// let trace = apache.scaled(0.05).generate(20_000);
/// assert_eq!(trace.len(), 20_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    name: String,
    class: WorkloadClass,
    params: GeneratorParams,
}

impl WorkloadProfile {
    /// Creates a custom profile.
    pub fn new(name: impl Into<String>, class: WorkloadClass, params: GeneratorParams) -> Self {
        WorkloadProfile {
            name: name.into(),
            class,
            params,
        }
    }

    /// OLTP on IBM DB2 (TPC-C): Table I row 1.
    pub fn oltp_db2() -> Self {
        WorkloadProfile::new(
            "OLTP-DB2",
            WorkloadClass::Oltp,
            GeneratorParams {
                seed: 0x0db2_0001,
                num_functions: 5000,
                fn_min_instrs: 24,
                fn_max_instrs: 240,
                zipf_s: 0.60,
                call_density: 0.015,
                indirect_fraction: 0.05,
                max_call_depth: 4,
                skip_density: 0.030,
                skip_bias: 0.995,
                noisy_skip_fraction: 0.05,
                loop_density: 0.004,
                loop_trip_jitter: 0.08,
                indirect_alt_prob: 0.1,
                loop_mean_iters: 12.0,
                loop_max_body: 48,
                num_transaction_types: 12,
                transaction_length: 40,
                interrupt_mean_interval: 3_000,
                num_handlers: 6,
                handler_min_instrs: 32,
                handler_max_instrs: 160,
            },
        )
    }

    /// OLTP on Oracle (TPC-C): heavier data-dependent dispatch than DB2.
    pub fn oltp_oracle() -> Self {
        WorkloadProfile::new(
            "OLTP-Oracle",
            WorkloadClass::Oltp,
            GeneratorParams {
                seed: 0x04ac_1e00,
                num_functions: 5600,
                fn_min_instrs: 24,
                fn_max_instrs: 220,
                zipf_s: 0.55,
                call_density: 0.016,
                indirect_fraction: 0.11,
                max_call_depth: 4,
                skip_density: 0.034,
                skip_bias: 0.993,
                noisy_skip_fraction: 0.12,
                loop_density: 0.004,
                loop_trip_jitter: 0.1,
                indirect_alt_prob: 0.15,
                loop_mean_iters: 10.0,
                loop_max_body: 40,
                num_transaction_types: 14,
                transaction_length: 40,
                interrupt_mean_interval: 3_000,
                num_handlers: 6,
                handler_min_instrs: 32,
                handler_max_instrs: 160,
            },
        )
    }

    /// DSS TPC-H Query 2 on DB2: scan-dominated, highly repetitive.
    pub fn dss_qry2() -> Self {
        WorkloadProfile::new(
            "DSS-Qry2",
            WorkloadClass::Dss,
            GeneratorParams {
                seed: 0xd55_0002,
                num_functions: 2400,
                fn_min_instrs: 40,
                fn_max_instrs: 480,
                zipf_s: 0.70,
                call_density: 0.0070,
                indirect_fraction: 0.02,
                max_call_depth: 4,
                skip_density: 0.018,
                skip_bias: 0.997,
                noisy_skip_fraction: 0.02,
                loop_density: 0.006,
                loop_trip_jitter: 0.01,
                indirect_alt_prob: 0.04,
                loop_mean_iters: 14.0,
                loop_max_body: 64,
                num_transaction_types: 2,
                transaction_length: 300,
                interrupt_mean_interval: 8_000,
                num_handlers: 4,
                handler_min_instrs: 24,
                handler_max_instrs: 120,
            },
        )
    }

    /// DSS TPC-H Query 17 on DB2: join-heavy variant of Q2.
    pub fn dss_qry17() -> Self {
        WorkloadProfile::new(
            "DSS-Qry17",
            WorkloadClass::Dss,
            GeneratorParams {
                seed: 0xd55_0017,
                num_functions: 3200,
                fn_min_instrs: 32,
                fn_max_instrs: 360,
                zipf_s: 0.68,
                call_density: 0.010,
                indirect_fraction: 0.025,
                max_call_depth: 3,
                skip_density: 0.018,
                skip_bias: 0.996,
                noisy_skip_fraction: 0.03,
                loop_density: 0.006,
                loop_trip_jitter: 0.015,
                indirect_alt_prob: 0.05,
                loop_mean_iters: 10.0,
                loop_max_body: 56,
                num_transaction_types: 3,
                transaction_length: 250,
                interrupt_mean_interval: 8_000,
                num_handlers: 4,
                handler_min_instrs: 24,
                handler_max_instrs: 120,
            },
        )
    }

    /// Apache HTTP Server (SPECweb99): Table I row 3.
    pub fn web_apache() -> Self {
        WorkloadProfile::new(
            "Web-Apache",
            WorkloadClass::Web,
            GeneratorParams {
                seed: 0xa9ac_4e00,
                num_functions: 6500,
                fn_min_instrs: 16,
                fn_max_instrs: 200,
                zipf_s: 0.50,
                call_density: 0.018,
                indirect_fraction: 0.07,
                max_call_depth: 5,
                skip_density: 0.034,
                skip_bias: 0.994,
                noisy_skip_fraction: 0.06,
                loop_density: 0.003,
                loop_trip_jitter: 0.08,
                indirect_alt_prob: 0.1,
                loop_mean_iters: 8.0,
                loop_max_body: 32,
                num_transaction_types: 20,
                transaction_length: 36,
                interrupt_mean_interval: 1_500,
                num_handlers: 8,
                handler_min_instrs: 32,
                handler_max_instrs: 200,
            },
        )
    }

    /// Zeus Web Server (SPECweb99): event-driven variant of Apache.
    pub fn web_zeus() -> Self {
        WorkloadProfile::new(
            "Web-Zeus",
            WorkloadClass::Web,
            GeneratorParams {
                seed: 0x2e05_0001,
                num_functions: 6000,
                fn_min_instrs: 16,
                fn_max_instrs: 190,
                zipf_s: 0.52,
                call_density: 0.019,
                indirect_fraction: 0.08,
                max_call_depth: 5,
                skip_density: 0.032,
                skip_bias: 0.994,
                noisy_skip_fraction: 0.05,
                loop_density: 0.003,
                loop_trip_jitter: 0.07,
                indirect_alt_prob: 0.1,
                loop_mean_iters: 8.0,
                loop_max_body: 32,
                num_transaction_types: 18,
                transaction_length: 36,
                interrupt_mean_interval: 1_500,
                num_handlers: 8,
                handler_min_instrs: 32,
                handler_max_instrs: 200,
            },
        )
    }

    /// All six workloads in the order the paper's figures plot them.
    pub fn all() -> Vec<WorkloadProfile> {
        vec![
            Self::oltp_db2(),
            Self::oltp_oracle(),
            Self::dss_qry2(),
            Self::dss_qry17(),
            Self::web_apache(),
            Self::web_zeus(),
        ]
    }

    /// Workload name as shown in the paper's figures.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload class.
    pub fn class(&self) -> WorkloadClass {
        self.class
    }

    /// Generator parameters.
    pub fn params(&self) -> &GeneratorParams {
        &self.params
    }

    /// Returns a copy with the code footprint scaled by `factor` (see
    /// [`GeneratorParams::scaled`]); behaviour knobs are unchanged.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        WorkloadProfile {
            name: self.name.clone(),
            class: self.class,
            params: self.params.clone().scaled(factor),
        }
    }

    /// Generates a trace of exactly `instructions` records.
    ///
    /// # Panics
    ///
    /// Panics if the profile's parameters are invalid (the built-in
    /// profiles never are).
    pub fn generate(&self, instructions: usize) -> Trace {
        self.generate_with_execution_seed(instructions, 0)
    }

    /// Generates a trace from the *same code image* but a different
    /// execution interleaving — another thread of the same server binary
    /// (transaction mix, branch outcomes, and interrupt arrivals differ).
    ///
    /// # Panics
    ///
    /// Panics if the profile's parameters are invalid.
    pub fn generate_with_execution_seed(&self, instructions: usize, offset: u64) -> Trace {
        let image = ProgramImage::generate(&self.params).expect("profile parameters are valid");
        let instrs = Executor::with_execution_seed(&image, &self.params, offset).run(instructions);
        Trace::new(self.name.clone(), instrs)
    }

    /// Streams exactly `instructions` records into `sink` as they are
    /// generated, never materializing the trace — e.g. directly into a
    /// `pif_trace::TraceWriter`. Produces the identical record sequence
    /// to [`WorkloadProfile::generate`].
    ///
    /// # Panics
    ///
    /// Panics if the profile's parameters are invalid.
    pub fn generate_into(&self, instructions: usize, sink: impl FnMut(pif_types::RetiredInstr)) {
        self.generate_with_execution_seed_into(instructions, 0, sink);
    }

    /// As [`WorkloadProfile::generate_into`] with an execution-seed
    /// offset (see [`WorkloadProfile::generate_with_execution_seed`]).
    ///
    /// # Panics
    ///
    /// Panics if the profile's parameters are invalid.
    pub fn generate_with_execution_seed_into(
        &self,
        instructions: usize,
        offset: u64,
        sink: impl FnMut(pif_types::RetiredInstr),
    ) {
        let image = ProgramImage::generate(&self.params).expect("profile parameters are valid");
        Executor::with_execution_seed(&image, &self.params, offset).run_into(instructions, sink);
    }

    /// The trace [`WorkloadProfile::generate_with_execution_seed`] would
    /// materialize, as a [`pif_types::InstrFeed`] that generates it while
    /// a walk consumes it: the feed pushes exactly those records, and no
    /// trace is ever held in memory.
    pub fn feed_with_execution_seed(&self, instructions: usize, offset: u64) -> GeneratedFeed<'_> {
        GeneratedFeed {
            profile: self,
            instructions,
            offset,
        }
    }

    /// Returns a lazily-generating instruction iterator: generation runs
    /// on a background thread feeding a bounded channel, so memory stays
    /// flat no matter how long the trace is. Being an
    /// `Iterator<Item = RetiredInstr>`, the stream is a
    /// `pif_types::InstrSource` and plugs straight into `Engine::run`.
    pub fn stream(&self, instructions: usize) -> crate::stream::TraceStream {
        crate::stream::TraceStream::spawn(self.clone(), instructions, 0)
    }

    /// As [`WorkloadProfile::stream`] with an execution-seed offset.
    pub fn stream_with_execution_seed(
        &self,
        instructions: usize,
        offset: u64,
    ) -> crate::stream::TraceStream {
        crate::stream::TraceStream::spawn(self.clone(), instructions, offset)
    }

    /// Generates the program image alone (for structural studies).
    pub fn image(&self) -> ProgramImage {
        ProgramImage::generate(&self.params).expect("profile parameters are valid")
    }
}

/// A workload's generated trace as a push-based [`InstrFeed`], made by
/// [`WorkloadProfile::feed_with_execution_seed`].
#[derive(Debug, Clone, Copy)]
pub struct GeneratedFeed<'a> {
    profile: &'a WorkloadProfile,
    instructions: usize,
    offset: u64,
}

impl InstrFeed for GeneratedFeed<'_> {
    fn instr_count(&self) -> usize {
        self.instructions
    }

    fn feed(self, sink: impl FnMut(pif_types::RetiredInstr)) {
        self.profile
            .generate_with_execution_seed_into(self.instructions, self.offset, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::TrapLevel;

    #[test]
    fn all_profiles_validate_and_are_ordered() {
        let all = WorkloadProfile::all();
        assert_eq!(all.len(), 6);
        let names: Vec<&str> = all.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "OLTP-DB2",
                "OLTP-Oracle",
                "DSS-Qry2",
                "DSS-Qry17",
                "Web-Apache",
                "Web-Zeus"
            ]
        );
        for w in &all {
            assert!(w.params().validate().is_ok(), "{} invalid", w.name());
        }
    }

    #[test]
    fn footprints_are_multi_megabyte() {
        for w in WorkloadProfile::all() {
            let bytes = w.params().approx_footprint_bytes();
            assert!(
                bytes > 1_000_000,
                "{} footprint {} too small",
                w.name(),
                bytes
            );
        }
    }

    #[test]
    fn classes_match_names() {
        assert_eq!(WorkloadProfile::oltp_db2().class(), WorkloadClass::Oltp);
        assert_eq!(WorkloadProfile::dss_qry17().class(), WorkloadClass::Dss);
        assert_eq!(WorkloadProfile::web_zeus().class(), WorkloadClass::Web);
        assert_eq!(WorkloadClass::Oltp.to_string(), "OLTP");
    }

    #[test]
    fn scaled_profile_generates_smaller_footprint() {
        let full = WorkloadProfile::oltp_db2();
        let small = full.scaled(0.1);
        assert!(small.params().num_functions < full.params().num_functions);
        let trace = small.generate(30_000);
        assert_eq!(trace.len(), 30_000);
    }

    #[test]
    fn generated_traces_have_interrupts_and_branches() {
        let trace = WorkloadProfile::web_apache().scaled(0.05).generate(60_000);
        let stats = trace.stats();
        assert!(stats.branches > 0);
        assert!(
            stats.tl1_instructions > 0,
            "web workload must see interrupts"
        );
        assert!(
            trace
                .instrs()
                .iter()
                .any(|i| i.trap_level == TrapLevel::Tl1),
            "TL1 records present"
        );
    }

    #[test]
    fn distinct_workloads_generate_distinct_traces() {
        let a = WorkloadProfile::oltp_db2().scaled(0.05).generate(5_000);
        let b = WorkloadProfile::oltp_oracle().scaled(0.05).generate(5_000);
        assert_ne!(a.instrs(), b.instrs());
    }
}
