//! The machine word.
//!
//! Every memory cell and every thread register holds one [`Word`]. The
//! paper's threads are Random Access Machines over integers; we fix the
//! word to `i64` with wrapping arithmetic so that every simulation is
//! deterministic and the sum / convolution results can be checked exactly
//! against sequential references.

/// A machine word: the contents of one memory cell or register.
pub type Word = i64;
