use std::error::Error;
use std::fmt;

/// Error returned when a predictor is configured with invalid parameters.
///
/// Produced by the `build()` methods of the predictor builders, e.g.
/// [`FcmBuilder::build`](crate::FcmBuilder::build).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A table-size exponent is outside the supported range.
    ///
    /// Table sizes are given as power-of-two exponents; exponents above 30
    /// would allocate more than a gibientry table and are rejected.
    TableBits {
        /// Which parameter was invalid (e.g. `"l1_bits"`).
        parameter: &'static str,
        /// The rejected value.
        value: u32,
        /// Maximum allowed value.
        max: u32,
    },
    /// A bit-width parameter (e.g. stored stride width) is invalid.
    Width {
        /// Which parameter was invalid.
        parameter: &'static str,
        /// The rejected value.
        value: u32,
        /// Inclusive lower bound.
        min: u32,
        /// Inclusive upper bound.
        max: u32,
    },
    /// A hash function cannot produce indices for the table size (an index
    /// width outside `1..=63`), or its own parameter is out of range (a
    /// fold-shift amount outside `1..=16`).
    Hash {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A serialized predictor state does not fit this configuration
    /// (wrong word count, or a table entry outside its legal range).
    /// Produced by the `load_state_words` restore methods; state blobs
    /// cross a trust boundary (snapshot files), so they are validated
    /// rather than assumed well-formed.
    State {
        /// Human-readable description of the mismatch.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TableBits {
                parameter,
                value,
                max,
            } => {
                write!(f, "{parameter} = {value} exceeds the maximum of {max}")
            }
            ConfigError::Width {
                parameter,
                value,
                min,
                max,
            } => {
                write!(
                    f,
                    "{parameter} = {value} is outside the range {min}..={max}"
                )
            }
            ConfigError::Hash { reason } => write!(f, "invalid hash configuration: {reason}"),
            ConfigError::State { reason } => write!(f, "incompatible predictor state: {reason}"),
        }
    }
}

impl Error for ConfigError {}

/// Upper bound on table-size exponents accepted by the builders.
pub(crate) const MAX_TABLE_BITS: u32 = 30;

pub(crate) fn check_table_bits(parameter: &'static str, value: u32) -> Result<(), ConfigError> {
    if value > MAX_TABLE_BITS {
        Err(ConfigError::TableBits {
            parameter,
            value,
            max: MAX_TABLE_BITS,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = ConfigError::TableBits {
            parameter: "l2_bits",
            value: 99,
            max: 30,
        };
        assert_eq!(err.to_string(), "l2_bits = 99 exceeds the maximum of 30");
        let err = ConfigError::Width {
            parameter: "stride_bits",
            value: 0,
            min: 1,
            max: 64,
        };
        assert!(err.to_string().contains("stride_bits"));
        let err = ConfigError::Hash {
            reason: "fold-shift amount 0 must be in 1..=16".into(),
        };
        assert!(err.to_string().contains("fold-shift"));
    }

    #[test]
    fn check_table_bits_boundaries() {
        assert!(check_table_bits("x", 0).is_ok());
        assert!(check_table_bits("x", MAX_TABLE_BITS).is_ok());
        assert!(check_table_bits("x", MAX_TABLE_BITS + 1).is_err());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
