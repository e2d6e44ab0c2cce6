//! Derive macros for the in-tree `serde` facade.
//!
//! This workspace builds fully offline, so instead of the real `serde` +
//! `serde_derive` it vendors a small facade with the same spelling at every
//! call site: `use serde::{Deserialize, Serialize};` plus
//! `#[derive(Serialize, Deserialize)]`.  The facade's data model is a single
//! JSON-like `serde::Value` tree, so the derives only have to map structs and
//! enums to and from that tree:
//!
//! * structs with named fields become objects in declaration order,
//! * unit enum variants become strings,
//! * data-carrying variants use serde's externally tagged form
//!   (`{"Variant": payload}`).
//!
//! The macros are implemented directly on `proc_macro::TokenStream` (no
//! `syn`/`quote`): the supported input shapes are exactly the ones this
//! workspace uses — non-generic structs with named fields and non-generic
//! enums whose variants are unit, tuple or struct-like.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Shape {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives the facade's `Serialize` trait (`fn to_value(&self) -> Value`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let body = match &shape {
        Shape::Struct { name, fields } => {
            let mut pushes = String::new();
            for f in fields {
                pushes.push_str(&format!(
                    "obj.push((\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})));\n"
                ));
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                 let mut obj: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                 {pushes}\
                 ::serde::Value::Object(obj)\n\
                 }}\n}}\n"
            )
        }
        Shape::TupleStruct { name, arity: 1 } => format!(
            // Newtype structs serialize transparently, as real serde does.
            "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ ::serde::Serialize::to_value(&self.0) }}\n}}\n"
        ),
        Shape::TupleStruct { name, arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ ::serde::Value::Array(vec![{}]) }}\n}}\n",
                elems.join(", ")
            )
        }
        Shape::UnitStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ ::serde::Value::Null }}\n}}\n"
        ),
        Shape::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::String(\"{vname}\".to_string()),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(f0) => ::serde::Value::Object(vec![(\"{vname}\".to_string(), ::serde::Serialize::to_value(f0))]),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let values: Vec<String> = binders
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => ::serde::Value::Object(vec![(\"{vname}\".to_string(), ::serde::Value::Array(vec![{}]))]),\n",
                            binders.join(", "),
                            values.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let binders = fields.join(", ");
                        let pairs: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {binders} }} => ::serde::Value::Object(vec![(\"{vname}\".to_string(), ::serde::Value::Object(vec![{}]))]),\n",
                            pairs.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                 match self {{\n{arms}}}\n\
                 }}\n}}\n"
            )
        }
    };
    body.parse()
        .expect("serde_derive generated invalid Serialize impl")
}

/// Derives the facade's `Deserialize` trait
/// (`fn from_value(&Value) -> Result<Self, Error>`).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let body = match &shape {
        Shape::Struct { name, fields } => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{f}: ::serde::Deserialize::from_value(::serde::get_field(obj, \"{f}\")).map_err(|e| e.in_field(\"{name}.{f}\"))?,\n"
                ));
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 let obj = v.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})\n\
                 }}\n}}\n"
            )
        }
        Shape::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
             ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))\n\
             }}\n}}\n"
        ),
        Shape::TupleStruct { name, arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Deserialize::from_value(&arr[{i}])?"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 let arr = v.as_array().ok_or_else(|| ::serde::Error::custom(\"expected array for {name}\"))?;\n\
                 if arr.len() != {arity} {{ return ::std::result::Result::Err(::serde::Error::custom(\"wrong arity for {name}\")); }}\n\
                 ::std::result::Result::Ok({name}({}))\n\
                 }}\n}}\n",
                elems.join(", ")
            )
        }
        Shape::UnitStruct { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(_v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
             ::std::result::Result::Ok({name})\n\
             }}\n}}\n"
        ),
        Shape::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    VariantKind::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(::serde::Deserialize::from_value(inner)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| {
                                format!("::serde::Deserialize::from_value(&arr[{i}])?")
                            })
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let arr = inner.as_array().ok_or_else(|| ::serde::Error::custom(\"expected array for {name}::{vname}\"))?;\n\
                             if arr.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::custom(\"wrong arity for {name}::{vname}\")); }}\n\
                             ::std::result::Result::Ok({name}::{vname}({}))\n\
                             }}\n",
                            elems.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{f}: ::serde::Deserialize::from_value(::serde::get_field(obj, \"{f}\"))?,\n"
                            ));
                        }
                        data_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let obj = inner.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for {name}::{vname}\"))?;\n\
                             ::std::result::Result::Ok({name}::{vname} {{\n{inits}}})\n\
                             }}\n"
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 match v {{\n\
                 ::serde::Value::String(s) => match s.as_str() {{\n\
                 {unit_arms}\
                 other => ::std::result::Result::Err(::serde::Error::custom(&format!(\"unknown variant {{other}} for {name}\"))),\n\
                 }},\n\
                 ::serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
                 let (tag, inner) = &pairs[0];\n\
                 let _ = inner;\n\
                 match tag.as_str() {{\n\
                 {data_arms}\
                 other => ::std::result::Result::Err(::serde::Error::custom(&format!(\"unknown variant {{other}} for {name}\"))),\n\
                 }}\n\
                 }},\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\"expected string or single-key object for {name}\")),\n\
                 }}\n\
                 }}\n}}\n"
            )
        }
    };
    body.parse()
        .expect("serde_derive generated invalid Deserialize impl")
}

fn parse_shape(input: TokenStream) -> Shape {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive: generic types are not supported (type {name})");
    }
    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Struct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct {
                    name,
                    arity: tuple_arity(g.stream()),
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct { name },
            other => {
                panic!("serde_derive: unsupported struct shape (type {name}, found {other:?})")
            }
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde_derive: malformed enum {name}: {other:?}"),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

/// Advances `i` past any `#[...]` attributes (including doc comments) and a
/// `pub` / `pub(...)` visibility marker.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    *i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Parses `name: Type, ...` field lists, returning the field names.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let field = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected field name, found {other}"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field {field}, found {other}"),
        }
        skip_type(&tokens, &mut i);
        fields.push(field);
    }
    fields
}

/// Skips type tokens up to (and past) the next comma that is not nested
/// inside `<...>` (delimited groups are single tokens, so only angle
/// brackets need explicit depth tracking).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0usize;
    while *i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[*i] {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected variant name, found {other}"),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(tuple_arity(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

/// Number of fields in a tuple variant: top-level commas + 1, ignoring a
/// trailing comma.
fn tuple_arity(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut angle_depth = 0usize;
    for (idx, tok) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 && idx + 1 < tokens.len() => arity += 1,
                _ => {}
            }
        }
    }
    arity
}
