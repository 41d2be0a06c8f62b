//! The checksum oracle: every run is compared with its app's Seq
//! reference under `tests/cross_version.rs`'s rules.

use apps::common::checksums_close;
use apps::AppId;

/// Relative tolerance of `app`'s checksum against Seq; `None` means
/// bitwise. Jacobi, Shallow and MGS keep the sequential summation
/// order exactly; FFT and NBF reassociate, IGrid barely does.
pub fn tolerance(app: AppId) -> Option<f64> {
    match app {
        AppId::Jacobi | AppId::Shallow | AppId::Mgs => None,
        AppId::Fft3d | AppId::Nbf => Some(1e-9),
        AppId::IGrid => Some(1e-12),
    }
}

/// Whether `got` agrees with the Seq reference `want` for `app`.
pub fn matches(app: AppId, got: &[f64], want: &[f64]) -> bool {
    match tolerance(app) {
        None => got == want,
        Some(tol) => checksums_close(got, want, tol),
    }
}

/// The largest relative difference between two checksums of equal
/// length (for the failure report).
pub fn max_rel_diff(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f64::max)
}
