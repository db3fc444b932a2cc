//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so this workspace ships a minimal self-describing serialization
//! framework under the same crate name: the `Serialize` / `Deserialize`
//! traits, written by hand for the few types something reads back (a
//! policy spec's TOML tables and a workload trace's JSON), plus the
//! field helpers those impls share.
//!
//! Instead of serde's visitor architecture, both traits go through a
//! simple tree [`Value`]: serializers lower data into a `Value`, and
//! format crates (the sibling `serde_json` stand-in, freon's TOML
//! module) render or parse that tree.

use std::fmt;

/// A self-describing data tree — the meeting point between `Serialize`
/// and data formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number (stored as `f64`; all numeric data in this workspace
    /// fits in 53 bits of mantissa).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Arr(Vec<Value>),
    /// A map with insertion-ordered string keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object of `fields`, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks a key up in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can lower themselves into a [`Value`].
pub trait Serialize {
    /// Lowers `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Num(n) => Ok(*n),
            other => Err(DeError::msg(format!("expected f64, found {other:?}"))),
        }
    }
}

// An integer reads only from a number that is one: integral, finite and
// in range. `MAX as f64 + 1.0` is the power of two just past the range,
// even where `MAX as f64` has itself rounded up to it.
macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(n)
                        if n.fract() == 0.0
                            && *n >= <$t>::MIN as f64
                            && *n < <$t>::MAX as f64 + 1.0 =>
                    {
                        Ok(*n as $t)
                    }
                    other => Err(DeError::msg(format!(
                        concat!("expected ", stringify!($t), ", found {:?}"),
                        other
                    ))),
                }
            }
        }
    )*};
}

impl_int!(u32, u64, usize);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!("expected string, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::msg(format!("expected array, found {other:?}"))),
        }
    }
}

/// The entries of object `v` (`what` in errors), which may hold no key
/// outside `known`.
pub fn object<'a>(
    v: &'a Value,
    what: &str,
    known: &[&str],
) -> Result<&'a [(String, Value)], DeError> {
    let Value::Obj(entries) = v else {
        return Err(DeError::msg(format!(
            "expected {what} to be an object, found {v:?}"
        )));
    };
    match entries
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(DeError::msg(format!("unknown key `{key}` in {what}"))),
        None => Ok(entries),
    }
}

/// Field `key` of an object's entries, if it is there.
pub fn opt_field<T: Deserialize>(
    entries: &[(String, Value)],
    key: &str,
) -> Result<Option<T>, DeError> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v)
            .map(Some)
            .map_err(|e| DeError::msg(format!("field `{key}`: {}", e.0))),
        None => Ok(None),
    }
}

/// Field `key` of object `what`'s entries, which must be there.
pub fn req_field<T: Deserialize>(
    entries: &[(String, Value)],
    key: &str,
    what: &str,
) -> Result<T, DeError> {
    opt_field(entries, key)?
        .ok_or_else(|| DeError::msg(format!("{what} is missing required key `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v = vec![1u64, 0, 3];
        assert_eq!(Vec::<u64>::from_value(&v.to_value()).unwrap(), v);
    }

    #[test]
    fn shape_mismatches_error() {
        assert!(bool::from_value(&Value::Num(1.0)).is_err());
        assert!(Vec::<u32>::from_value(&Value::Str("no".into())).is_err());
    }

    #[test]
    fn integers_refuse_what_they_cannot_hold() {
        for bad in [-1.0, 2.9, 2f64.powi(32), 1e30, f64::NAN, f64::INFINITY] {
            assert!(u32::from_value(&Value::Num(bad)).is_err(), "u32 from {bad}");
        }
        assert!(u64::from_value(&Value::Num(2f64.powi(64))).is_err());
        assert!(usize::from_value(&Value::Num(-0.5)).is_err());
        assert_eq!(
            u32::from_value(&Value::Num(4_294_967_295.0)).unwrap(),
            u32::MAX
        );
        assert_eq!(u64::from_value(&Value::Num(-0.0)).unwrap(), 0);
        // A float keeps reading whatever number is there.
        assert!(f64::from_value(&Value::Num(f64::NAN)).unwrap().is_nan());
    }
}
