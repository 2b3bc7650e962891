//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shimmed `serde` traits without `syn`/`quote` (neither is available in
//! this sandbox): the input `TokenStream` is walked by hand, the impl is
//! assembled as source text, and `str::parse` turns it back into tokens.
//!
//! Supported shapes — everything this workspace derives on:
//! - structs with named fields (any visibility, generic type params)
//! - enums with unit, tuple and struct variants (externally tagged,
//!   matching upstream serde's default representation)
//!
//! Bounds on type parameters at the definition site are not re-emitted;
//! each type param simply gains a `Serialize`/`Deserialize` bound on the
//! generated impl.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field: `name` (type tokens are skipped — codegen never needs
/// them because `from_value`/`write_json` dispatch through the trait).
struct Field {
    name: String,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Shape {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// Type parameter idents, e.g. `["M"]` for `MrTask<M>`.
    type_params: Vec<String>,
    shape: Shape,
}

fn parse_input(input: TokenStream) -> Input {
    let mut toks = input.into_iter().peekable();

    // Outer attributes (incl. doc comments) and visibility.
    skip_attrs_and_vis(&mut toks);

    let kw = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("derive: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("derive: expected type name, got {other:?}"),
    };

    // Optional generic parameter list `<...>`.
    let mut type_params = Vec::new();
    if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        toks.next();
        let mut depth = 1usize;
        // A param ident is one that appears at depth 1 directly after `<`
        // or a depth-1 comma (i.e. not inside bounds or defaults).
        let mut expect_param = true;
        while let Some(tt) = toks.next() {
            match &tt {
                TokenTree::Punct(p) => match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ',' if depth == 1 => expect_param = true,
                    '\'' => {
                        // Lifetime: consume its ident, never a type param.
                        toks.next();
                        expect_param = false;
                    }
                    _ => expect_param = false,
                },
                TokenTree::Ident(i) if depth == 1 && expect_param => {
                    type_params.push(i.to_string());
                    expect_param = false;
                }
                _ => expect_param = false,
            }
        }
    }

    // Skip anything up to the body group (e.g. a `where` clause).
    let body = loop {
        match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(_) => continue,
            None => panic!("derive: `{name}` has no braced body (tuple/unit structs unsupported)"),
        }
    };

    let shape = match kw.as_str() {
        "struct" => Shape::Struct(parse_named_fields(body.stream())),
        "enum" => Shape::Enum(parse_variants(body.stream())),
        other => panic!("derive: unsupported item kind `{other}`"),
    };

    Input {
        name,
        type_params,
        shape,
    }
}

fn skip_attrs_and_vis(toks: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                // The bracketed attribute body.
                toks.next();
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                // `pub(crate)` / `pub(super)` restriction group.
                if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    toks.next();
                }
            }
            _ => return,
        }
    }
}

/// Parse `name: Type, ...` (named-field struct body or struct-variant body).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut toks = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => panic!("derive: expected field name, got {other:?}"),
            None => break,
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("derive: expected `:` after field `{name}`, got {other:?}"),
        }
        // Skip the type: everything up to a comma at `<>` depth 0. Groups
        // are atomic token trees, so parens/brackets need no tracking.
        let mut depth = 0usize;
        for tt in toks.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth = depth.saturating_sub(1),
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
        fields.push(Field { name });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut toks = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => panic!("derive: expected variant name, got {other:?}"),
            None => break,
        };
        let kind = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                toks.next();
                VariantKind::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                toks.next();
                VariantKind::Tuple(arity)
            }
            _ => VariantKind::Unit,
        };
        // Optional discriminant (`= expr`) then the separating comma.
        for tt in toks.by_ref() {
            if matches!(&tt, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

/// Number of fields in a tuple-variant body: top-level commas + 1.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0usize;
    let mut fields = 1usize;
    let mut any = false;
    for tt in stream {
        any = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => fields += 1,
                _ => {}
            }
        }
    }
    if any {
        fields
    } else {
        0
    }
}

/// `impl<A: Bound, B: Bound>` header + `Name<A, B>` type, or plain forms
/// when there are no type params.
fn impl_header(input: &Input, bound: &str) -> (String, String) {
    if input.type_params.is_empty() {
        (String::from("impl"), input.name.clone())
    } else {
        let params: Vec<String> = input
            .type_params
            .iter()
            .map(|p| format!("{p}: {bound}"))
            .collect();
        (
            format!("impl<{}>", params.join(", ")),
            format!("{}<{}>", input.name, input.type_params.join(", ")),
        )
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let (header, ty) = impl_header(&input, "::serde::ser::Serialize");
    let mut body = String::new();

    match &input.shape {
        Shape::Struct(fields) => {
            body.push_str("out.push('{');\n");
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    body.push_str("out.push(',');\n");
                }
                body.push_str(&format!(
                    "out.push_str(\"\\\"{0}\\\":\");\n\
                     ::serde::ser::Serialize::write_json(&self.{0}, out);\n",
                    f.name
                ));
            }
            body.push_str("out.push('}');\n");
        }
        Shape::Enum(variants) => {
            body.push_str("match self {\n");
            for v in variants {
                let name = &input.name;
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        body.push_str(&format!(
                            "{name}::{vn} => out.push_str(\"\\\"{vn}\\\"\"),\n"
                        ));
                    }
                    VariantKind::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                        body.push_str(&format!(
                            "{name}::{vn}({}) => {{\n\
                             out.push_str(\"{{\\\"{vn}\\\":[\");\n",
                            binds.join(", ")
                        ));
                        for (i, b) in binds.iter().enumerate() {
                            if i > 0 {
                                body.push_str("out.push(',');\n");
                            }
                            body.push_str(&format!(
                                "::serde::ser::Serialize::write_json({b}, out);\n"
                            ));
                        }
                        body.push_str("out.push_str(\"]}\");\n},\n");
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        body.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{\n\
                             out.push_str(\"{{\\\"{vn}\\\":{{\");\n",
                            binds.join(", ")
                        ));
                        for (i, f) in fields.iter().enumerate() {
                            if i > 0 {
                                body.push_str("out.push(',');\n");
                            }
                            body.push_str(&format!(
                                "out.push_str(\"\\\"{0}\\\":\");\n\
                                 ::serde::ser::Serialize::write_json({0}, out);\n",
                                f.name
                            ));
                        }
                        body.push_str("out.push_str(\"}}\");\n},\n");
                    }
                }
            }
            body.push_str("}\n");
        }
    }

    let out = format!(
        "{header} ::serde::ser::Serialize for {ty} {{\n\
         fn write_json(&self, out: &mut ::std::string::String) {{\n\
         {body}\
         }}\n\
         }}\n"
    );
    out.parse()
        .expect("derive(Serialize): generated code failed to parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let (header, ty) = impl_header(&input, "::serde::de::Deserialize");
    let name = &input.name;
    let mut body = String::new();

    match &input.shape {
        Shape::Struct(fields) => {
            body.push_str(&format!(
                "let obj = v.as_object().ok_or_else(|| \
                 ::serde::DeError::new(\"expected object for {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n"
            ));
            for f in fields {
                body.push_str(&field_from_obj(name, &f.name));
            }
            body.push_str("})\n");
        }
        Shape::Enum(variants) => {
            // Externally tagged: a bare string selects a unit variant, a
            // single-key object selects a data-carrying one.
            body.push_str("match v {\n");
            body.push_str("::serde::value::Value::Str(tag) => match tag.as_str() {\n");
            for v in variants {
                if matches!(v.kind, VariantKind::Unit) {
                    body.push_str(&format!(
                        "\"{0}\" => ::std::result::Result::Ok({name}::{0}),\n",
                        v.name
                    ));
                }
            }
            body.push_str(&format!(
                "other => ::std::result::Result::Err(::serde::DeError::new(\
                 ::std::format!(\"unknown {name} variant {{other:?}}\"))),\n}},\n"
            ));
            body.push_str(
                "::serde::value::Value::Obj(members) if members.len() == 1 => {\n\
                 let (tag, inner) = &members[0];\n\
                 match tag.as_str() {\n",
            );
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {}
                    VariantKind::Tuple(arity) => {
                        body.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let arr = inner.as_array().ok_or_else(|| \
                             ::serde::DeError::new(\"expected array for {name}::{vn}\"))?;\n\
                             if arr.len() != {arity} {{\n\
                             return ::std::result::Result::Err(::serde::DeError::new(\
                             \"wrong arity for {name}::{vn}\"));\n}}\n\
                             ::std::result::Result::Ok({name}::{vn}(\n"
                        ));
                        for i in 0..*arity {
                            body.push_str(&format!(
                                "::serde::de::Deserialize::from_value(&arr[{i}])?,\n"
                            ));
                        }
                        body.push_str("))\n},\n");
                    }
                    VariantKind::Struct(fields) => {
                        body.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let obj = inner.as_object().ok_or_else(|| \
                             ::serde::DeError::new(\"expected object for {name}::{vn}\"))?;\n\
                             ::std::result::Result::Ok({name}::{vn} {{\n"
                        ));
                        for f in fields {
                            body.push_str(&field_from_obj(&format!("{name}::{vn}"), &f.name));
                        }
                        body.push_str("})\n},\n");
                    }
                }
            }
            body.push_str(&format!(
                "other => ::std::result::Result::Err(::serde::DeError::new(\
                 ::std::format!(\"unknown {name} variant {{other:?}}\"))),\n\
                 }}\n}},\n\
                 other => ::std::result::Result::Err(::serde::DeError::new(\
                 ::std::format!(\"expected {name}, got {{other:?}}\"))),\n\
                 }}\n"
            ));
        }
    }

    let out = format!(
        "{header} ::serde::de::Deserialize for {ty} {{\n\
         fn from_value(v: &::serde::value::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n\
         {body}\
         }}\n\
         }}\n"
    );
    out.parse()
        .expect("derive(Deserialize): generated code failed to parse")
}

/// `field: Deserialize::from_value(find(obj, "field")?)?,` with a
/// missing-field error naming the owner type.
fn field_from_obj(owner: &str, field: &str) -> String {
    format!(
        "{field}: ::serde::de::Deserialize::from_value(\
         ::serde::value::find(obj, \"{field}\").ok_or_else(|| \
         ::serde::DeError::new(\"missing field {field} in {owner}\"))?)?,\n"
    )
}
