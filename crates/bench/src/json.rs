//! Minimal JSON emission for the experiment exports.
//!
//! The build environment cannot reach crates.io, so instead of `serde_json`
//! this module provides the tiny subset the harness needs: a [`Json`] value
//! tree, a [`ToJson`] conversion trait for the numeric shapes the experiments
//! produce, a [`crate::json!`] object macro, and a pretty printer.
//!
//! Non-finite floats serialize as `null` (JSON has no NaN/Infinity), matching
//! what external plotting scripts expect from missing data points.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (non-finite input becomes [`Json::Null`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Integral values print without a trailing ".0", like
                    // serde_json prints integers.
                    if x.fract() == 0.0 && x.abs() < 9.0e15 {
                        let _ = write_int(out, *x);
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn write_int(out: &mut String, x: f64) -> std::fmt::Result {
    use std::fmt::Write;
    write!(out, "{}", x as i64)
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push_str(&format!("\"{}\"", bgp_model::json::Escaped(s)));
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Convert `self` to a JSON tree.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! impl_num_to_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            #[allow(clippy::cast_precision_loss)] // export precision is plot-level
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )+};
}

impl_num_to_json!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson, D: ToJson> ToJson for (A, B, C, D) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.0.to_json(),
            self.1.to_json(),
            self.2.to_json(),
            self.3.to_json(),
        ])
    }
}

/// Build a [`Json::Obj`] with `serde_json::json!`-like object syntax:
/// `json!({ "key": value_expr, ... })`. Values go through [`ToJson`];
/// nested objects are written as explicit inner `json!` calls.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_owned(), $crate::json::ToJson::to_json(&$value)),)*
        ])
    };
}

/// Field-by-field export of the paper's twelve observations.
///
/// Implemented here (not in `coanalysis`) so the core crate stays free of
/// serialization concerns; the exhaustive destructuring makes this impl break
/// at compile time when `Observations` gains a field.
impl ToJson for coanalysis::report::Observations {
    fn to_json(&self) -> Json {
        let coanalysis::report::Observations {
            obs1_nonfatal_codes,
            obs1_nonimpacting_event_fraction,
            obs2_system_types,
            obs2_application_types,
            obs2_app_event_fraction,
            obs3_ts_compression,
            obs3_job_compression,
            obs4_shape_before,
            obs4_shape_after,
            obs4_mtbf_ratio,
            obs4_weibull_preferred,
            obs5_corr_total_workload,
            obs5_corr_wide_workload,
            obs6_interrupted_job_fraction,
            obs6_quick_reinterruptions,
            obs6_max_consecutive,
            obs7_mtti_over_mtbf,
            obs7_idle_event_fraction,
            obs8_spatial_fraction,
            obs8_spatial_code_count,
            obs9_system_probs,
            obs9_application_probs,
            obs10_size_gain_ratio,
            obs10_time_gain_ratio,
            obs11_app_first_hour,
            obs12_suspicious_users,
            obs12_user_share,
        } = self;
        crate::json!({
            "obs1_nonfatal_codes": obs1_nonfatal_codes,
            "obs1_nonimpacting_event_fraction": obs1_nonimpacting_event_fraction,
            "obs2_system_types": obs2_system_types,
            "obs2_application_types": obs2_application_types,
            "obs2_app_event_fraction": obs2_app_event_fraction,
            "obs3_ts_compression": obs3_ts_compression,
            "obs3_job_compression": obs3_job_compression,
            "obs4_shape_before": obs4_shape_before,
            "obs4_shape_after": obs4_shape_after,
            "obs4_mtbf_ratio": obs4_mtbf_ratio,
            "obs4_weibull_preferred": obs4_weibull_preferred,
            "obs5_corr_total_workload": obs5_corr_total_workload,
            "obs5_corr_wide_workload": obs5_corr_wide_workload,
            "obs6_interrupted_job_fraction": obs6_interrupted_job_fraction,
            "obs6_quick_reinterruptions": obs6_quick_reinterruptions,
            "obs6_max_consecutive": obs6_max_consecutive,
            "obs7_mtti_over_mtbf": obs7_mtti_over_mtbf,
            "obs7_idle_event_fraction": obs7_idle_event_fraction,
            "obs8_spatial_fraction": obs8_spatial_fraction,
            "obs8_spatial_code_count": obs8_spatial_code_count,
            "obs9_system_probs": obs9_system_probs,
            "obs9_application_probs": obs9_application_probs,
            "obs10_size_gain_ratio": obs10_size_gain_ratio,
            "obs10_time_gain_ratio": obs10_time_gain_ratio,
            "obs11_app_first_hour": obs11_app_first_hour,
            "obs12_suspicious_users": obs12_suspicious_users,
            "obs12_user_share": obs12_user_share,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_object() {
        let v = crate::json!({
            "a": 1u32,
            "b": crate::json!({"c": 2.5f64, "d": vec![1u64, 2, 3]}),
            "e": Option::<f64>::None,
        });
        let s = v.pretty();
        assert!(s.contains("\"a\": 1"));
        assert!(s.contains("\"c\": 2.5"));
        assert!(s.contains("\"d\": [\n"));
        assert!(s.contains("\"e\": null"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json().pretty().trim(), "null");
        assert_eq!(f64::INFINITY.to_json().pretty().trim(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::Str("a\"b\\c\nd".to_owned());
        assert_eq!(v.pretty().trim(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn tuple_series_serialize_as_arrays() {
        let series = vec![(1.0, 0.5, 0.4, 0.6)];
        let s = series.to_json().pretty();
        assert!(s.contains("0.5"));
        assert!(s.starts_with("[\n"));
    }
}
