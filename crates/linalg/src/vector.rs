//! Dense vectors of `f64` with the norms state estimation needs.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense column vector.
///
/// # Examples
///
/// ```
/// use sta_linalg::Vector;
///
/// let v = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(v.norm2(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// A zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the entries.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean (`l2`) norm — the residual norm in bad-data detection.
    pub fn norm2(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Maximum absolute entry (`l∞` norm).
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Entry-wise scaling by `k`.
    pub fn scaled(&self, k: f64) -> Vector {
        Vector { data: self.data.iter().map(|x| x * k).collect() }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector { data: iter.into_iter().collect() }
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "add: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect()
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "sub: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect()
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.data.iter().map(|x| -x).collect()
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, k: f64) -> Vector {
        self.scaled(k)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(3).norm2(), 0.0);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!(&a + &b, Vector::from(vec![4.0, 7.0]));
        assert_eq!(&b - &a, Vector::from(vec![2.0, 3.0]));
        assert_eq!(-&a, Vector::from(vec![-1.0, -2.0]));
        assert_eq!(&a * 2.0, Vector::from(vec![2.0, 4.0]));
        assert_eq!(a.dot(&b), 13.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn indexing_and_iteration() {
        let mut v = Vector::zeros(2);
        v[1] = 7.0;
        assert_eq!(v[1], 7.0);
        assert_eq!(v.iter().sum::<f64>(), 7.0);
    }
}
