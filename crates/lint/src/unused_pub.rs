//! The cross-file `unused-pub` rule: a `pub` item of `crates/*/src`
//! whose name no other file mentions is public surface nothing uses.
//!
//! Every file contributes one identifier index over its masked code
//! (comments, strings and the name a `fn` defines never count as uses).
//! An item survives when its
//! name is in another file's index, when a reasoned
//! `// lint: allow(unused-pub)` covers it, or — iterated to a fixed
//! point — when a surviving item exposes it: a type named in a surviving
//! `pub fn` signature, a `pub` field, an enum or trait body, or a type
//! alias or constant's type is reachable without being named elsewhere.
//! Name matching can only under-report: a common name (`new`) called
//! anywhere keeps every item of that name, whatever the receiver's type.

use std::collections::HashSet;

/// A `pub` item found in a linted file's production code.
pub(crate) struct PubItem<'a> {
    pub(crate) name: &'a str,
    /// 1-based line of the item's `pub` keyword.
    pub(crate) line: usize,
    /// Identifiers the item exposes to its users (see the module docs).
    pub(crate) exposes: Vec<&'a str>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Identifier tokens of masked `code` with their byte offsets. Numeric
/// literals (`1e3`, `0x1f`, `2u32`) are skipped whole.
pub(crate) fn idents(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = code.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if !is_ident_byte(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            if !bytes[start].is_ascii_digit() {
                return Some((start, &code[start..i]));
            }
        }
        None
    })
}

/// The identifier index of one file's masked code. The name after `fn`
/// is a definition, not a use, so it is left out: a same-named method of
/// another type does not keep an item alive.
pub(crate) fn ident_set(code: &str) -> HashSet<&str> {
    let mut prev = "";
    idents(code)
        .filter_map(|(_, id)| {
            let defined = prev == "fn";
            prev = id;
            (!defined).then_some(id)
        })
        .collect()
}

/// Offset of the first `stop` byte at bracket depth 0 from `from`, or
/// the end of `code`.
fn scan_to(code: &str, from: usize, stop: &[u8]) -> usize {
    let mut depth = 0i64;
    for (j, &b) in code.as_bytes().iter().enumerate().skip(from) {
        if depth == 0 && stop.contains(&b) {
            return j;
        }
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    code.len()
}

/// Offset just past the bracket that closes the one opening at `open`.
fn matching_close(code: &str, open: usize) -> usize {
    scan_to(code, open + 1, b")]}") + 1
}

/// Identifiers of the public fields in a struct body `body` (without
/// its delimiters): the comma-separated fields at depth 0 that start
/// with `pub` (after any attributes) but not `pub(..)`.
fn pub_field_idents(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut from = 0;
    while from < body.len() {
        let end = scan_to(body, from, b",");
        let mut field = body[from..end].trim_start();
        while field.starts_with("#[") {
            let close = matching_close(field, 1).min(field.len());
            field = field[close..].trim_start();
        }
        if let Some(rest) = field.strip_prefix("pub") {
            if !rest.starts_with('(') && !rest.starts_with(|c: char| is_ident_byte(c as u8)) {
                out.extend(idents(rest).map(|(_, id)| id));
            }
        }
        from = end + 1;
    }
    out
}

/// Every `pub` item of masked, `#[cfg(test)]`-stripped `code`. `line_of`
/// maps a byte offset to its 1-based line.
pub(crate) fn pub_items<'a>(code: &'a str, line_of: impl Fn(usize) -> usize) -> Vec<PubItem<'a>> {
    let toks: Vec<(usize, &str)> = idents(code).collect();
    let mut items = Vec::new();
    for (t, &(pos, tok)) in toks.iter().enumerate() {
        // `pub(crate)` and friends are not public surface.
        if tok != "pub" || code[pos + 3..].trim_start().starts_with('(') {
            continue;
        }
        let tok_at = |k: usize| toks.get(k).map_or("", |&(_, id)| id);
        let mut k = t + 1;
        loop {
            match tok_at(k) {
                "unsafe" | "async" | "extern" => k += 1,
                // `pub const fn` is a function, `pub const X` a constant.
                "const" if matches!(tok_at(k + 1), "fn" | "unsafe") => k += 1,
                _ => break,
            }
        }
        let kind = tok_at(k);
        if !matches!(
            kind,
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
        ) {
            continue;
        }
        k += 1;
        if kind == "static" && tok_at(k) == "mut" {
            k += 1;
        }
        let Some(&(name_pos, name)) = toks.get(k) else {
            continue;
        };
        let after = name_pos + name.len();
        let exposes = match kind {
            "fn" => {
                let end = scan_to(code, after, b"{;");
                idents(&code[after..end]).map(|(_, id)| id).collect()
            }
            "struct" => {
                let open = scan_to(code, after, b"{(;");
                if matches!(code.as_bytes().get(open), Some(b'{' | b'(')) {
                    let close = matching_close(code, open).min(code.len());
                    pub_field_idents(&code[open + 1..close.saturating_sub(1).max(open + 1)])
                } else {
                    Vec::new()
                }
            }
            "enum" | "trait" => {
                let open = scan_to(code, after, b"{;");
                if code.as_bytes().get(open) == Some(&b'{') {
                    let close = matching_close(code, open).min(code.len());
                    idents(&code[open..close]).map(|(_, id)| id).collect()
                } else {
                    Vec::new()
                }
            }
            "type" => {
                let end = scan_to(code, after, b";");
                idents(&code[after..end]).map(|(_, id)| id).collect()
            }
            // `const`, `static`: the declared type, not the initializer.
            _ => {
                let end = scan_to(code, after, b"=;");
                idents(&code[after..end]).map(|(_, id)| id).collect()
            }
        };
        items.push(PubItem {
            name,
            line: line_of(pos),
            exposes,
        });
    }
    items
}
