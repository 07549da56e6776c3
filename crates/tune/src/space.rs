//! The declared configuration space the tuner searches.
//!
//! A [`TuneSpace`] is eight axes — four machine/launch parameters
//! (`d`, `w`, `l`, `warps`) and four kernel-layout knobs (`pad`,
//! `swizzle`, `transpose`, `unroll`) that the tunable kernels turn into
//! [`hmm_lang::Transform`] lists. The cross product of the axes is
//! the candidate set; enumeration order is a **mixed-radix counter**
//! (first axis slowest, last fastest), which gives every candidate a
//! stable index and is the order the tuner measures in, so a budget
//! smaller than the space always measures the same candidates.
//!
//! The paper's Table I/II Θ-terms bound what is worth declaring here:
//! time only ever enters through `n/w`, `nl/p`, `l`, `log n` and the
//! conflict inflations, so axes beyond `d · w · warps` (which set `p`)
//! and the bank-behaviour knobs cannot change the ranking — see
//! `DESIGN.md`.

use std::fmt::Write as _;

/// Hard ceiling on enumerated candidates — a declared space larger than
/// this is almost certainly a typo (the measure stage would take hours).
pub const MAX_CANDIDATES: usize = 4096;

/// One point of the space: a machine shape plus kernel-layout knobs.
///
/// `warps` is warps **per DMM**, so the launch is always
/// `p = warps · w · d` threads — every kernel's `d | p` requirement
/// holds by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// DMM count `d`.
    pub d: usize,
    /// Warp width / bank count `w`.
    pub w: usize,
    /// Global-memory latency `l`.
    pub l: usize,
    /// Warps per DMM.
    pub warps: usize,
    /// Shared-memory padding words per `w`-row (0 = off).
    pub pad: usize,
    /// Xor-swizzle shared addresses.
    pub swizzle: bool,
    /// Transpose the kernel's primary shared region.
    pub transpose: bool,
    /// Strided-loop unroll factor (1 = off).
    pub unroll: usize,
}

impl Candidate {
    /// Threads per DMM.
    #[must_use]
    pub fn pd(&self) -> usize {
        self.warps * self.w
    }

    /// Total launched threads `p = warps · w · d`.
    #[must_use]
    pub fn p(&self) -> usize {
        self.pd() * self.d
    }

    /// Stable short id used in reports, goldens and logs:
    /// `d4w8l32x2` plus `+pad1 +swz +tr +un2` for the enabled knobs.
    #[must_use]
    pub fn id(&self) -> String {
        let mut s = format!("d{}w{}l{}x{}", self.d, self.w, self.l, self.warps);
        if self.pad > 0 {
            let _ = write!(s, "+pad{}", self.pad);
        }
        if self.swizzle {
            s.push_str("+swz");
        }
        if self.transpose {
            s.push_str("+tr");
        }
        if self.unroll > 1 {
            let _ = write!(s, "+un{}", self.unroll);
        }
        s
    }
}

/// Errors from [`TuneSpace::parse`] and [`TuneSpace::enumerate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// `axis=values` clause did not parse.
    BadClause(String),
    /// Unknown axis name.
    UnknownAxis(String),
    /// An axis value violates its lower bound.
    BadValue(String),
    /// The cross product exceeds [`MAX_CANDIDATES`].
    TooLarge {
        /// Candidates the space would enumerate.
        candidates: usize,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::BadClause(c) => write!(f, "cannot parse space clause '{c}'"),
            SpaceError::UnknownAxis(a) => write!(
                f,
                "unknown axis '{a}' (axes: d, w, l, warps, pad, swizzle, transpose, unroll)"
            ),
            SpaceError::BadValue(m) => write!(f, "{m}"),
            SpaceError::TooLarge { candidates } => {
                write!(
                    f,
                    "space has {candidates} candidates (max {MAX_CANDIDATES})"
                )
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// The eight-axis search space. Every axis holds the values to try, in
/// declaration order; the first value of each axis is the **baseline**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneSpace {
    /// DMM counts.
    pub d: Vec<usize>,
    /// Warp widths.
    pub w: Vec<usize>,
    /// Global latencies.
    pub l: Vec<usize>,
    /// Warps per DMM.
    pub warps: Vec<usize>,
    /// Padding words per row (0 = off).
    pub pad: Vec<usize>,
    /// Xor swizzle on/off.
    pub swizzle: Vec<bool>,
    /// Transpose on/off.
    pub transpose: Vec<bool>,
    /// Unroll factors (1 = off).
    pub unroll: Vec<usize>,
}

impl Default for TuneSpace {
    /// The stock space: a fixed `d=4, w=8, l=32` machine, with the
    /// launch width and every layout knob free — 48 candidates, small
    /// enough for `--budget 64` to measure exhaustively.
    fn default() -> Self {
        Self {
            d: vec![4],
            w: vec![8],
            l: vec![32],
            warps: vec![1, 2, 4],
            pad: vec![0, 1],
            swizzle: vec![false, true],
            transpose: vec![false, true],
            unroll: vec![1, 2],
        }
    }
}

fn parse_usizes(axis: &str, vals: &str, min: usize) -> Result<Vec<usize>, SpaceError> {
    let mut out: Vec<usize> = Vec::new();
    for tok in vals.split(',') {
        let v: usize = tok
            .trim()
            .parse()
            .map_err(|_| SpaceError::BadClause(format!("{axis}={vals}")))?;
        if v < min {
            return Err(SpaceError::BadValue(format!(
                "axis '{axis}' value {v} is below the minimum {min}"
            )));
        }
        if !out.contains(&v) {
            out.push(v);
        }
    }
    if out.is_empty() {
        return Err(SpaceError::BadClause(format!("{axis}={vals}")));
    }
    Ok(out)
}

fn parse_bools(axis: &str, vals: &str) -> Result<Vec<bool>, SpaceError> {
    let mut out: Vec<bool> = Vec::new();
    for tok in vals.split(',') {
        let b = match tok.trim() {
            "0" | "false" | "off" => false,
            "1" | "true" | "on" => true,
            _ => return Err(SpaceError::BadClause(format!("{axis}={vals}"))),
        };
        if !out.contains(&b) {
            out.push(b);
        }
    }
    if out.is_empty() {
        return Err(SpaceError::BadClause(format!("{axis}={vals}")));
    }
    Ok(out)
}

impl TuneSpace {
    /// Parse a `--space` spec: semicolon-separated `axis=v1,v2,...`
    /// clauses over the axes `d, w, l, warps, pad, swizzle, transpose,
    /// unroll`. Omitted axes keep their [`TuneSpace::default`] values
    /// **collapsed to the baseline** (first value), so a spec constrains
    /// exactly what it names:
    ///
    /// ```
    /// let s = hmm_tune::TuneSpace::parse("warps=2,4;pad=0,1,2").unwrap();
    /// assert_eq!(s.warps, vec![2, 4]);
    /// assert_eq!(s.pad, vec![0, 1, 2]);
    /// assert_eq!(s.d, vec![4]); // default machine, collapsed
    /// assert_eq!(s.unroll, vec![1]);
    /// ```
    pub fn parse(spec: &str) -> Result<Self, SpaceError> {
        let def = Self::default();
        let mut s = Self {
            d: vec![def.d[0]],
            w: vec![def.w[0]],
            l: vec![def.l[0]],
            warps: vec![def.warps[0]],
            pad: vec![def.pad[0]],
            swizzle: vec![def.swizzle[0]],
            transpose: vec![def.transpose[0]],
            unroll: vec![def.unroll[0]],
        };
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((axis, vals)) = clause.split_once('=') else {
                return Err(SpaceError::BadClause(clause.into()));
            };
            let axis = axis.trim();
            match axis {
                "d" => s.d = parse_usizes(axis, vals, 1)?,
                "w" => s.w = parse_usizes(axis, vals, 1)?,
                "l" => s.l = parse_usizes(axis, vals, 1)?,
                "warps" => s.warps = parse_usizes(axis, vals, 1)?,
                "pad" => s.pad = parse_usizes(axis, vals, 0)?,
                "swizzle" => s.swizzle = parse_bools(axis, vals)?,
                "transpose" => s.transpose = parse_bools(axis, vals)?,
                "unroll" => s.unroll = parse_usizes(axis, vals, 1)?,
                _ => return Err(SpaceError::UnknownAxis(axis.into())),
            }
        }
        Ok(s)
    }

    /// Render back to the canonical spec string (stable; embedded in
    /// reports so a run is reproducible from its own JSON).
    #[must_use]
    pub fn render(&self) -> String {
        fn us(v: &[usize]) -> String {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
        fn bs(v: &[bool]) -> String {
            v.iter()
                .map(|b| if *b { "1" } else { "0" })
                .collect::<Vec<_>>()
                .join(",")
        }
        format!(
            "d={};w={};l={};warps={};pad={};swizzle={};transpose={};unroll={}",
            us(&self.d),
            us(&self.w),
            us(&self.l),
            us(&self.warps),
            us(&self.pad),
            bs(&self.swizzle),
            bs(&self.transpose),
            us(&self.unroll),
        )
    }

    /// Every candidate, in mixed-radix order (see module docs).
    ///
    /// # Errors
    /// [`SpaceError::TooLarge`] past [`MAX_CANDIDATES`],
    /// [`SpaceError::BadClause`] when an axis is empty.
    pub fn enumerate(&self) -> Result<Vec<Candidate>, SpaceError> {
        let radices = [
            self.d.len(),
            self.w.len(),
            self.l.len(),
            self.warps.len(),
            self.pad.len(),
            self.swizzle.len(),
            self.transpose.len(),
            self.unroll.len(),
        ];
        let n: usize = radices.iter().product();
        if n == 0 {
            return Err(SpaceError::BadClause("empty axis".into()));
        }
        if n > MAX_CANDIDATES {
            return Err(SpaceError::TooLarge { candidates: n });
        }
        let candidate = |mut rem: usize| {
            let mut digit = [0usize; 8];
            for (i, radix) in radices.iter().enumerate().rev() {
                digit[i] = rem % radix;
                rem /= radix;
            }
            Candidate {
                d: self.d[digit[0]],
                w: self.w[digit[1]],
                l: self.l[digit[2]],
                warps: self.warps[digit[3]],
                pad: self.pad[digit[4]],
                swizzle: self.swizzle[digit[5]],
                transpose: self.transpose[digit[6]],
                unroll: self.unroll[digit[7]],
            }
        };
        Ok((0..n).map(candidate).collect())
    }

    /// The untuned default: the first value of every machine axis with
    /// every layout knob off. This is the anchor every tuning run
    /// measures and every speedup is quoted against; it may or may not
    /// be a member of [`TuneSpace::enumerate`].
    #[must_use]
    pub fn baseline(&self) -> Candidate {
        Candidate {
            d: self.d[0],
            w: self.w[0],
            l: self.l[0],
            warps: self.warps[0],
            pad: 0,
            swizzle: false,
            transpose: false,
            unroll: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_enumerates_with_stable_indices() {
        let s = TuneSpace::default();
        let all = s.enumerate().unwrap();
        assert_eq!(all.len(), 48);
        // Index 0 is the all-first-values candidate == the baseline.
        assert_eq!(all[0], s.baseline());
        // The last axis (unroll) is the fastest-varying digit, the
        // first (d) the slowest.
        assert_eq!(all[0].unroll, 1);
        assert_eq!(all[1].unroll, 2);
        assert!(!all[1].transpose);
        assert!(all[2].transpose);
        assert_eq!((all[15].warps, all[16].warps), (1, 2));
    }

    #[test]
    fn parse_constrains_only_named_axes() {
        let s = TuneSpace::parse("d=2,4; w=8 ; pad=0,2;unroll=1,2,4").unwrap();
        assert_eq!(s.d, vec![2, 4]);
        assert_eq!(s.w, vec![8]);
        assert_eq!(s.pad, vec![0, 2]);
        assert_eq!(s.unroll, vec![1, 2, 4]);
        // Unnamed axes collapse to their baseline value.
        assert_eq!(s.warps, vec![1]);
        assert_eq!(s.swizzle, vec![false]);
        assert_eq!(s.enumerate().unwrap().len(), 2 * 2 * 3);
        // Round-trips through render.
        assert_eq!(TuneSpace::parse(&s.render()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(matches!(
            TuneSpace::parse("q=1"),
            Err(SpaceError::UnknownAxis(_))
        ));
        assert!(matches!(
            TuneSpace::parse("d=zero"),
            Err(SpaceError::BadClause(_))
        ));
        assert!(matches!(
            TuneSpace::parse("d=0"),
            Err(SpaceError::BadValue(_))
        ));
        assert!(matches!(
            TuneSpace::parse("swizzle=maybe"),
            Err(SpaceError::BadClause(_))
        ));
        assert!(matches!(
            TuneSpace::parse("d"),
            Err(SpaceError::BadClause(_))
        ));
        let huge = TuneSpace::parse("l=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16;pad=0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17;warps=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16").unwrap();
        assert!(matches!(huge.enumerate(), Err(SpaceError::TooLarge { .. })));
    }

    #[test]
    fn candidate_ids_are_stable() {
        let c = Candidate {
            d: 4,
            w: 8,
            l: 32,
            warps: 2,
            pad: 1,
            swizzle: true,
            transpose: false,
            unroll: 2,
        };
        assert_eq!(c.id(), "d4w8l32x2+pad1+swz+un2");
        assert_eq!(c.p(), 64);
        assert_eq!(c.pd(), 16);
        let b = TuneSpace::default().baseline();
        assert_eq!(b.id(), "d4w8l32x1");
    }
}
