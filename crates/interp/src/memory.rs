//! The interpreter's value domain and flat byte-addressed memory.

use std::fmt;

use lslp_ir::hash::HashMap;
use lslp_ir::ScalarType;

/// A runtime value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Any integer type (canonicalized by sign-extension from its width).
    Int(i64),
    /// Any float type (f32 values are stored widened).
    Float(f64),
    /// A pointer into a [`Memory`] buffer.
    Ptr {
        /// Buffer handle.
        buf: u32,
        /// Byte offset (may be temporarily out of bounds; checked on use).
        off: i64,
    },
    /// A vector of scalar values.
    Vec(Vec<Value>),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics when the value is not an `Int`.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics when the value is not a `Float`.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            other => panic!("expected Float, got {other:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Ptr { buf, off } => write!(f, "ptr({buf}+{off})"),
            Value::Vec(vs) => {
                f.write_str("<")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(">")
            }
        }
    }
}

struct Buffer {
    data: Vec<u8>,
}

/// A set of named byte buffers modelling the arrays a kernel works on.
#[derive(Default)]
pub struct Memory {
    bufs: Vec<Buffer>,
    names: HashMap<String, u32>,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Allocate a zero-filled buffer of `bytes` bytes; returns its base
    /// pointer. Reuses (and resizes) an existing buffer with the same name.
    pub fn alloc(&mut self, name: &str, bytes: usize) -> Value {
        if let Some(&b) = self.names.get(name) {
            self.bufs[b as usize].data = vec![0; bytes];
            return Value::Ptr { buf: b, off: 0 };
        }
        let b = self.bufs.len() as u32;
        self.bufs.push(Buffer { data: vec![0; bytes] });
        self.names.insert(name.to_string(), b);
        Value::Ptr { buf: b, off: 0 }
    }

    /// Allocate and initialize an `i64` array.
    pub fn alloc_i64(&mut self, name: &str, init: &[i64]) -> Value {
        let p = self.alloc(name, init.len() * 8);
        for (i, &v) in init.iter().enumerate() {
            self.write_scalar(&p, (i * 8) as i64, ScalarType::I64, Value::Int(v)).unwrap();
        }
        p
    }

    /// Allocate and initialize an `f64` array.
    pub fn alloc_f64(&mut self, name: &str, init: &[f64]) -> Value {
        let p = self.alloc(name, init.len() * 8);
        for (i, &v) in init.iter().enumerate() {
            self.write_scalar(&p, (i * 8) as i64, ScalarType::F64, Value::Float(v)).unwrap();
        }
        p
    }

    /// Allocate and initialize an `f32` array.
    pub fn alloc_f32(&mut self, name: &str, init: &[f32]) -> Value {
        let p = self.alloc(name, init.len() * 4);
        for (i, &v) in init.iter().enumerate() {
            self.write_scalar(&p, (i * 4) as i64, ScalarType::F32, Value::Float(v as f64)).unwrap();
        }
        p
    }

    /// Base pointer of a named buffer.
    pub fn ptr(&self, name: &str) -> Option<Value> {
        self.names.get(name).map(|&b| Value::Ptr { buf: b, off: 0 })
    }

    /// Read element `idx` of a named `i64` array.
    pub fn read_i64(&self, name: &str, idx: usize) -> Option<i64> {
        let &b = self.names.get(name)?;
        let data = &self.bufs[b as usize].data;
        let at = idx * 8;
        let bytes = data.get(at..at + 8)?;
        Some(i64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Read element `idx` of a named `f64` array.
    pub fn read_f64(&self, name: &str, idx: usize) -> Option<f64> {
        self.read_i64(name, idx).map(|bits| f64::from_bits(bits as u64))
    }

    /// Raw contents of a named buffer (for whole-state comparisons).
    pub fn bytes(&self, name: &str) -> Option<&[u8]> {
        let &b = self.names.get(name)?;
        Some(&self.bufs[b as usize].data)
    }

    /// All buffer names, sorted (for deterministic state comparison).
    pub fn buffer_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.names.keys().map(String::as_str).collect();
        names.sort();
        names
    }

    fn slice(&self, ptr: &Value, extra: i64, len: usize) -> Result<(u32, usize), String> {
        let Value::Ptr { buf, off } = ptr else {
            return Err(format!("expected pointer, got {ptr}"));
        };
        let at = off + extra;
        if at < 0 {
            return Err(format!("negative address {at}"));
        }
        let data = &self.bufs.get(*buf as usize).ok_or("dangling buffer")?.data;
        let at = at as usize;
        if at + len > data.len() {
            return Err(format!("out-of-bounds access at {at}+{len} of {}", data.len()));
        }
        Ok((*buf, at))
    }

    /// Read one scalar of type `ty` at `ptr + extra` bytes.
    pub fn read_scalar(&self, ptr: &Value, extra: i64, ty: ScalarType) -> Result<Value, String> {
        let (buf, at) = self.slice(ptr, extra, ty.bytes() as usize)?;
        let data = &self.bufs[buf as usize].data;
        let v = match ty {
            ScalarType::I8 => Value::Int(data[at] as i8 as i64),
            ScalarType::I16 => {
                Value::Int(i16::from_le_bytes(data[at..at + 2].try_into().unwrap()) as i64)
            }
            ScalarType::I32 => {
                Value::Int(i32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as i64)
            }
            ScalarType::I64 => Value::Int(i64::from_le_bytes(data[at..at + 8].try_into().unwrap())),
            ScalarType::F32 => {
                Value::Float(f32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as f64)
            }
            ScalarType::F64 => {
                Value::Float(f64::from_le_bytes(data[at..at + 8].try_into().unwrap()))
            }
            ScalarType::Ptr => return Err("pointer loads are not modelled".into()),
        };
        Ok(v)
    }

    /// Write one scalar of type `ty` at `ptr + extra` bytes.
    pub fn write_scalar(
        &mut self,
        ptr: &Value,
        extra: i64,
        ty: ScalarType,
        v: Value,
    ) -> Result<(), String> {
        let (buf, at) = self.slice(ptr, extra, ty.bytes() as usize)?;
        let data = &mut self.bufs[buf as usize].data;
        match (ty, v) {
            (ScalarType::I8, Value::Int(x)) => data[at] = x as u8,
            (ScalarType::I16, Value::Int(x)) => {
                data[at..at + 2].copy_from_slice(&(x as i16).to_le_bytes())
            }
            (ScalarType::I32, Value::Int(x)) => {
                data[at..at + 4].copy_from_slice(&(x as i32).to_le_bytes())
            }
            (ScalarType::I64, Value::Int(x)) => data[at..at + 8].copy_from_slice(&x.to_le_bytes()),
            (ScalarType::F32, Value::Float(x)) => {
                data[at..at + 4].copy_from_slice(&(x as f32).to_le_bytes())
            }
            (ScalarType::F64, Value::Float(x)) => {
                data[at..at + 8].copy_from_slice(&x.to_le_bytes())
            }
            (ty, v) => return Err(format!("cannot store {v} as {ty}")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut mem = Memory::new();
        let p = mem.alloc("buf", 64);
        for (ty, v) in [
            (ScalarType::I8, Value::Int(-5)),
            (ScalarType::I16, Value::Int(-1234)),
            (ScalarType::I32, Value::Int(123456)),
            (ScalarType::I64, Value::Int(i64::MIN + 1)),
            (ScalarType::F32, Value::Float(0.5)),
            (ScalarType::F64, Value::Float(0.1)),
        ] {
            mem.write_scalar(&p, 8, ty, v.clone()).unwrap();
            assert_eq!(mem.read_scalar(&p, 8, ty).unwrap(), v, "{ty}");
        }
    }

    #[test]
    fn bounds_are_enforced() {
        let mut mem = Memory::new();
        let p = mem.alloc("buf", 8);
        assert!(mem.read_scalar(&p, 1, ScalarType::I64).is_err());
        assert!(mem.read_scalar(&p, -1, ScalarType::I8).is_err());
        assert!(mem.write_scalar(&p, 8, ScalarType::I8, Value::Int(0)).is_err());
        assert!(mem.write_scalar(&p, 7, ScalarType::I8, Value::Int(0)).is_ok());
    }

    #[test]
    fn named_helpers() {
        let mut mem = Memory::new();
        mem.alloc_i64("A", &[1, 2, 3]);
        mem.alloc_f64("B", &[0.5]);
        assert_eq!(mem.read_i64("A", 2), Some(3));
        assert_eq!(mem.read_f64("B", 0), Some(0.5));
        assert_eq!(mem.read_i64("A", 3), None);
        assert!(mem.ptr("A").is_some());
        assert!(mem.ptr("Z").is_none());
        assert_eq!(mem.buffer_names(), vec!["A", "B"]);
    }

    #[test]
    fn realloc_resets_contents() {
        let mut mem = Memory::new();
        mem.alloc_i64("A", &[7]);
        let p = mem.alloc("A", 16);
        assert_eq!(mem.read_i64("A", 0), Some(0));
        assert_eq!(p, Value::Ptr { buf: 0, off: 0 });
    }
}
