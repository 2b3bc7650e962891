//! Offline stand-in for `serde_json`, layered on the shimmed `serde`
//! traits (which are JSON-oriented directly, so this crate is mostly
//! plumbing and error-type adaptation).

#![forbid(unsafe_code)]

use serde::de::DeserializeOwned;
use serde::ser::Serialize;

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching upstream.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize `value` as JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let value = serde::value::parse(bytes).map_err(|e| Error(e.0))?;
    T::from_value(&value).map_err(|e| Error(e.0))
}

/// Deserialize from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}

#[cfg(test)]
mod tests {
    #[test]
    fn string_roundtrip() {
        let v = vec![(1u64, "a".to_string()), (2, "b\"c".to_string())];
        let bytes = super::to_vec(&v).unwrap();
        let back: Vec<(u64, String)> = super::from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(super::from_slice::<u32>(b"not json").is_err());
        assert!(super::from_slice::<u32>(b"").is_err());
    }
}
