//! Hand-rolled JSON encoding for experiment records.
//!
//! The build environment has no serde, so record structs implement the tiny
//! [`ToJson`] trait instead — usually through the
//! [`crate::impl_to_json!`] macro, which emits one JSON object with the
//! struct's named fields. Output is plain, standards-conformant JSON (NaN
//! and infinities map to `null`, as `serde_json` does for its permissive
//! formatters).

/// A value that can write itself as JSON.
pub trait ToJson {
    /// Appends this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);

    /// Returns this value's JSON encoding as a fresh string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! impl_to_json_integer {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )+};
}

impl_to_json_integer!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

/// Implements [`ToJson`] for a struct as a JSON object of its named fields.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                out.push('{');
                let mut first = true;
                $(
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = first;
                    out.push('"');
                    out.push_str(stringify!($field));
                    out.push_str("\":");
                    $crate::json::ToJson::write_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sample {
        name: String,
        count: usize,
        ratio: f64,
        flags: Vec<bool>,
    }

    impl_to_json!(Sample {
        name,
        count,
        ratio,
        flags
    });

    #[test]
    fn struct_macro_emits_a_json_object() {
        let s = Sample {
            name: "RMAT-B(14)".into(),
            count: 3,
            ratio: 0.5,
            flags: vec![true, false],
        };
        assert_eq!(
            s.to_json(),
            r#"{"name":"RMAT-B(14)","count":3,"ratio":0.5,"flags":[true,false]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("a\"b\\c\nd".to_json(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(1.25f64.to_json(), "1.25");
    }

    #[test]
    fn options_and_vectors_nest() {
        let v: Vec<Option<usize>> = vec![Some(1), None, Some(3)];
        assert_eq!(v.to_json(), "[1,null,3]");
    }
}
