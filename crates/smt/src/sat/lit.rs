//! Propositional literals and truth values for the CDCL core.

use std::fmt;
use std::ops::Not;

/// Index of a SAT variable (dense, starting at 0).
pub type SatVar = u32;

/// A literal: a SAT variable with a polarity, packed as `var << 1 | neg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn positive(v: SatVar) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn negative(v: SatVar) -> Lit {
        Lit((v << 1) | 1)
    }

    /// Builds a literal with an explicit polarity.
    pub fn with_polarity(v: SatVar, positive: bool) -> Lit {
        if positive {
            Lit::positive(v)
        } else {
            Lit::negative(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> SatVar {
        self.0 >> 1
    }

    /// Whether this is the positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index usable for watch lists (`2·var + sign`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The packed code (`2·var + sign`), one word of the CDCL clause
    /// arena.
    pub(crate) const fn code(self) -> u32 {
        self.0
    }

    /// The literal whose packed code is `code`.
    pub(crate) const fn from_code(code: u32) -> Lit {
        Lit(code)
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "¬x{}", self.var())
        }
    }
}

/// Three-valued truth assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    Undef,
}

impl LBool {
    /// Truth value of a literal given its variable's value.
    pub fn of_lit(self, lit: Lit) -> LBool {
        match (self, lit.is_positive()) {
            (LBool::Undef, _) => LBool::Undef,
            (LBool::True, true) | (LBool::False, false) => LBool::True,
            _ => LBool::False,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing() {
        let p = Lit::positive(7);
        let n = Lit::negative(7);
        assert_eq!(p.var(), 7);
        assert_eq!(n.var(), 7);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(Lit::with_polarity(3, false), Lit::negative(3));
    }

    #[test]
    fn lbool_of_lit() {
        assert_eq!(LBool::True.of_lit(Lit::positive(0)), LBool::True);
        assert_eq!(LBool::True.of_lit(Lit::negative(0)), LBool::False);
        assert_eq!(LBool::False.of_lit(Lit::positive(0)), LBool::False);
        assert_eq!(LBool::False.of_lit(Lit::negative(0)), LBool::True);
        assert_eq!(LBool::Undef.of_lit(Lit::positive(0)), LBool::Undef);
    }
}
