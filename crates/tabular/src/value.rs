//! A single attribute value.

use serde::{Deserialize, Serialize};

/// One attribute value of a tuple.
///
/// Values are deliberately small and `Copy`: datasets store millions of them
/// and the training hot loops read them densely. Nominal categories are
/// stored as integer codes; the attribute's [`crate::Attribute`] maps codes
/// back to names for display.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A numeric (continuous or ordered-discrete) value.
    Num(f64),
    /// A nominal category code.
    Nominal(u32),
}

impl Value {
    /// Returns the numeric payload, or `None` for nominal values.
    #[inline]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Nominal(_) => None,
        }
    }

    /// Returns the nominal code, or `None` for numeric values.
    #[inline]
    pub fn as_nominal(&self) -> Option<u32> {
        match self {
            Value::Num(_) => None,
            Value::Nominal(c) => Some(*c),
        }
    }

    /// Numeric payload, panicking on nominal values.
    ///
    /// Use only where the schema guarantees a numeric attribute (internal
    /// hot paths after validation).
    #[inline]
    pub fn expect_num(&self) -> f64 {
        self.as_num().expect("expected numeric value")
    }

    /// Nominal code, panicking on numeric values.
    #[inline]
    pub fn expect_nominal(&self) -> u32 {
        self.as_nominal().expect("expected nominal value")
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u32> for Value {
    fn from(c: u32) -> Self {
        Value::Nominal(c)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Num(x) => write!(f, "{x}"),
            Value::Nominal(c) => write!(f, "#{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let v = Value::Num(3.5);
        assert_eq!(v.as_num(), Some(3.5));
        assert_eq!(v.as_nominal(), None);
        let c = Value::Nominal(7);
        assert_eq!(c.as_nominal(), Some(7));
        assert_eq!(c.as_num(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(2.0), Value::Num(2.0));
        assert_eq!(Value::from(4u32), Value::Nominal(4));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Num(1.25).to_string(), "1.25");
        assert_eq!(Value::Nominal(3).to_string(), "#3");
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn expect_num_panics_on_nominal() {
        Value::Nominal(0).expect_num();
    }

    #[test]
    fn value_is_small() {
        // Two words: discriminant + payload. Training loops rely on this.
        assert!(std::mem::size_of::<Value>() <= 16);
    }
}
