//! The benchmark's workloads: which (app, version, protocol) cells one
//! pass runs, and at which problem scale.

use apps::runner::run_with_cfg_on;
use apps::{AppId, RunResult, Version};
use sp2sim::EngineKind;
use treadmarks::{ProtocolMode, TmkConfig};

/// Simulated SP2 nodes of every parallel run (the paper's platform).
pub const NPROCS: usize = 8;

/// The compiler-generated and hand-coded shared-memory versions.
const DSM_VERSIONS: [Version; 3] = [Version::Spf, Version::SpfCri, Version::Tmk];

/// One benchmark workload. See `perfbench/README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1's grid under LRC: the lazy, writer-held diff path.
    RegularLrc,
    /// The regular apps' DSM versions under HLRC: eager home flushes
    /// and whole-page fetches.
    RegularHlrc,
    /// Table 3's irregular apps at the paper's size, both protocols:
    /// the inspector/executor path.
    Irregular,
    /// MGS and 3-D FFT with the virtual-time recorder on and every
    /// trace analyzed: the observability path.
    Traced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RegularLrc,
        Workload::RegularHlrc,
        Workload::Irregular,
        Workload::Traced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegularLrc => "regular-lrc",
            Workload::RegularHlrc => "regular-hlrc",
            Workload::Irregular => "irregular",
            Workload::Traced => "traced",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Problem scale of every run (1.0 = the paper's sizes).
    pub fn scale(self) -> f64 {
        match self {
            Workload::RegularLrc | Workload::RegularHlrc => 0.3,
            Workload::Irregular => 1.0,
            Workload::Traced => 0.5,
        }
    }

    /// The applications the workload runs (each gets a Seq reference).
    pub fn apps(self) -> &'static [AppId] {
        match self {
            Workload::RegularLrc | Workload::RegularHlrc => &AppId::REGULAR,
            Workload::Irregular => &AppId::IRREGULAR,
            Workload::Traced => &[AppId::Mgs, AppId::Fft3d],
        }
    }

    /// Whether the timing passes themselves run with the recorder on.
    pub fn traced(self) -> bool {
        self == Workload::Traced
    }

    /// The cells of one pass, in canonical order.
    pub fn cells(self) -> Vec<Cell> {
        use ProtocolMode::{Hlrc, Lrc};
        let (versions, protocols, message_passing): (&[Version], &[ProtocolMode], bool) = match self
        {
            Workload::RegularLrc => (&DSM_VERSIONS, &[Lrc], true),
            Workload::RegularHlrc => (&DSM_VERSIONS, &[Hlrc], false),
            Workload::Irregular => (&DSM_VERSIONS, &[Lrc, Hlrc], true),
            Workload::Traced => (&[Version::Spf], &[Lrc, Hlrc], false),
        };
        let mut cells = Vec::new();
        for &app in self.apps() {
            for &protocol in protocols {
                for &version in versions {
                    cells.push(Cell {
                        app,
                        version,
                        protocol,
                    });
                }
            }
            if message_passing {
                for version in [Version::Xhpf, Version::Pvme] {
                    cells.push(Cell {
                        app,
                        version,
                        protocol: Lrc,
                    });
                }
            }
        }
        cells
    }
}

/// One run of a pass. Message-passing versions ignore `protocol`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub app: AppId,
    pub version: Version,
    pub protocol: ProtocolMode,
}

impl Cell {
    /// Whether the version runs on the DSM (and so has DSM counters).
    pub fn is_dsm(&self) -> bool {
        !matches!(self.version, Version::Xhpf | Version::Pvme | Version::Seq)
    }

    /// Name used in the benchmark's output, e.g. `IGrid SPF+CRI/LRC`.
    pub fn label(&self) -> String {
        if self.is_dsm() {
            let protocol = self.protocol.name().to_uppercase();
            format!("{} {}/{}", self.app.name(), self.version.name(), protocol)
        } else {
            format!("{} {}", self.app.name(), self.version.name())
        }
    }

    /// Run the cell on the sequential engine at `scale`, with `cfg`'s
    /// page size and recorder switch and the cell's protocol.
    pub fn run(&self, scale: f64, cfg: TmkConfig) -> RunResult {
        run_with_cfg_on(
            EngineKind::Sequential,
            self.app,
            self.version,
            NPROCS,
            scale,
            cfg.with_protocol(self.protocol),
        )
    }
}

/// The Seq reference run of `app` at `scale`.
pub fn run_seq(app: AppId, scale: f64) -> RunResult {
    run_with_cfg_on(
        EngineKind::Sequential,
        app,
        Version::Seq,
        1,
        scale,
        TmkConfig::default(),
    )
}
