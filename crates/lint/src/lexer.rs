//! A small hand-rolled Rust lexer: just enough token discipline to make
//! textual invariant rules sound.
//!
//! The lint rules are substring searches, which are only trustworthy if
//! string literals and comments cannot fake or hide a token. This module
//! produces a *masked* view of a source file — byte-for-byte the same
//! length and line structure as the original, with the contents of every
//! string/char literal and every comment replaced by spaces — plus the
//! comment list (line-numbered, text preserved) that the `// SAFETY:`
//! and `// lint:` rules read.
//!
//! Handled syntax:
//!
//! - line comments (`//`, `///`, `//!`) and block comments (`/* */`),
//!   including **nested** block comments;
//! - string literals with escapes (`"a\"b"`), byte strings (`b"…"`),
//!   raw strings with any hash depth (`r"…"`, `r#"…"#`, `br##"…"##`);
//! - char literals with escapes (`'\''`, `'\u{1F600}'`) versus
//!   **lifetimes** (`'a`, `'static`, `for<'de>`), which must not be
//!   mistaken for an unterminated char literal.
//!
//! This is deliberately not a full lexer — no token stream, no keywords
//! — because the rules only need "is this byte code, string, or
//! comment?" plus comment text.

/// One comment from the source, with its starting line (1-based).
///
/// Block comments keep their full text including newlines; the `line`
/// is where the comment *starts*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line on which the comment opens.
    pub line: usize,
    /// Comment text including the `//` / `/*` delimiters.
    pub text: String,
}

/// A masked source file: same bytes as the input except that string and
/// char literal *contents* and entire comments are replaced by spaces
/// (newlines kept, so line/column arithmetic still holds).
#[derive(Debug, Clone)]
pub struct Masked {
    /// The space-masked source. Identical length to the input.
    pub code: String,
    /// Every comment, in source order.
    pub comments: Vec<Comment>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comment with nesting depth.
    BlockComment(u32),
    Str,
    /// Raw string terminated by `"` followed by `hashes` `#`s.
    RawStr {
        hashes: u32,
    },
    Char,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Masks `src`, returning the code view and the comment list.
///
/// The masking never fails: unterminated constructs simply mask to the
/// end of input, which is the conservative choice for a linter (tokens
/// inside them stay hidden).
pub fn mask(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(chars.len());
    let mut comments = Vec::new();
    let mut comment_buf = String::new();
    let mut comment_line = 0usize;
    let mut line = 1usize;
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! push_masked {
        ($c:expr) => {
            out.push(if $c == '\n' { '\n' } else { ' ' })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
        }
        match state {
            State::Code => {
                // Comment openers.
                if c == '/' && i + 1 < chars.len() && chars[i + 1] == '/' {
                    state = State::LineComment;
                    comment_line = line;
                    comment_buf.clear();
                    comment_buf.push(c);
                    push_masked!(c);
                    i += 1;
                    continue;
                }
                if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                    state = State::BlockComment(1);
                    comment_line = line;
                    comment_buf.clear();
                    comment_buf.push_str("/*");
                    push_masked!(c);
                    push_masked!(chars[i + 1]);
                    i += 2;
                    continue;
                }
                // Raw / byte string openers: r"…", r#"…"#, b"…", br#"…"#.
                // Only when not part of a longer identifier (`ber"x"` is
                // not a string).
                let prev_ident = i > 0 && is_ident(chars[i - 1]);
                if !prev_ident && (c == 'r' || c == 'b') {
                    let mut j = i + 1;
                    let mut raw = c == 'r';
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        raw = true;
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    // `b"…"` is escape-rule; `r…`/`br…` are raw. A hash
                    // run without the `r` prefix is not a string opener.
                    if chars.get(j) == Some(&'"') && (raw || hashes == 0) {
                        // Keep the prefix and the opening quote visible.
                        for &k in &chars[i..=j] {
                            out.push(k);
                        }
                        i = j + 1;
                        state = if raw {
                            State::RawStr { hashes }
                        } else {
                            State::Str
                        };
                        continue;
                    }
                    out.push(c);
                    i += 1;
                    continue;
                }
                if c == '"' {
                    out.push(c);
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Lifetime or char literal? A lifetime is `'` +
                    // ident-start NOT followed by a closing `'`
                    // (`'a'` is a char, `'a` is a lifetime).
                    let next = chars.get(i + 1).copied();
                    let after = chars.get(i + 2).copied();
                    let is_lifetime = matches!(next, Some(n) if n == '_' || n.is_alphabetic())
                        && after != Some('\'');
                    if is_lifetime {
                        out.push(c);
                        i += 1;
                        continue;
                    }
                    out.push(c);
                    state = State::Char;
                    i += 1;
                    continue;
                }
                out.push(c);
                i += 1;
            }
            State::LineComment => {
                if c == '\n' {
                    comments.push(Comment {
                        line: comment_line,
                        text: comment_buf.clone(),
                    });
                    state = State::Code;
                    out.push('\n');
                    i += 1;
                    continue;
                }
                comment_buf.push(c);
                push_masked!(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    comment_buf.push_str("/*");
                    push_masked!(c);
                    push_masked!('*');
                    i += 2;
                    continue;
                }
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    comment_buf.push_str("*/");
                    push_masked!(c);
                    push_masked!('/');
                    i += 2;
                    if depth == 1 {
                        comments.push(Comment {
                            line: comment_line,
                            text: comment_buf.clone(),
                        });
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    continue;
                }
                comment_buf.push(c);
                push_masked!(c);
                i += 1;
            }
            State::Str => {
                if c == '\\' && i + 1 < chars.len() {
                    push_masked!(c);
                    push_masked!(chars[i + 1]);
                    if chars[i + 1] == '\n' {
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    out.push(c);
                    state = State::Code;
                    i += 1;
                    continue;
                }
                push_masked!(c);
                i += 1;
            }
            State::RawStr { hashes } => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        out.push('"');
                        out.extend(std::iter::repeat_n('#', hashes as usize));
                        i = j;
                        state = State::Code;
                        continue;
                    }
                }
                push_masked!(c);
                i += 1;
            }
            State::Char => {
                if c == '\\' && i + 1 < chars.len() {
                    push_masked!(c);
                    push_masked!(chars[i + 1]);
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    out.push(c);
                    state = State::Code;
                    i += 1;
                    continue;
                }
                push_masked!(c);
                i += 1;
            }
        }
    }
    // Unterminated line comment at EOF still counts.
    if state == State::LineComment {
        comments.push(Comment {
            line: comment_line,
            text: comment_buf,
        });
    }
    Masked {
        code: out.into_iter().collect(),
        comments,
    }
}

/// Character spans (start, end exclusive) of every `#[cfg(test)]` item
/// in masked `chars`: each runs from the attribute through the end of the
/// item — either the matching `}` of the first brace block that follows,
/// or the first `;` before any brace opens.
fn cfg_test_spans(chars: &[char]) -> Vec<(usize, usize)> {
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i + needle.len() <= chars.len() {
        if chars[i..i + needle.len()] != needle[..] {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + needle.len();
        let mut depth = 0i64;
        let mut end = chars.len();
        while j < chars.len() {
            match chars[j] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                ';' if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((start, end));
        i = end;
    }
    spans
}

/// Blanks (space-fills, newlines kept) every `#[cfg(test)]` item in the
/// masked code — test modules and test-gated items are outside the
/// production invariants the lint enforces.
pub fn strip_cfg_test(code: &str) -> String {
    let mut chars: Vec<char> = code.chars().collect();
    for (start, end) in cfg_test_spans(&chars) {
        for c in &mut chars[start..end] {
            if *c != '\n' {
                *c = ' ';
            }
        }
    }
    chars.into_iter().collect()
}

/// Lines of `source` outside its `#[cfg(test)]` items, counting blank
/// and comment lines: a line is a test line when any part of it lies
/// in such an item, from the attribute through the item's end.
pub fn non_test_lines(source: &str) -> usize {
    let chars: Vec<char> = mask(source).code.chars().collect();
    let line_of = |pos: usize| chars[..pos].iter().filter(|&&c| c == '\n').count();
    let total = source.lines().count();
    let test: usize = cfg_test_spans(&chars)
        .into_iter()
        .map(|(start, end)| line_of(end.max(start + 1) - 1) - line_of(start) + 1)
        .sum();
    total - test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked_code(src: &str) -> String {
        mask(src).code
    }

    #[test]
    fn masks_line_comments_but_records_them() {
        let m = mask("let x = 1; // HashMap here\nlet y = 2;\n");
        assert!(!m.code.contains("HashMap"));
        assert_eq!(m.comments.len(), 1);
        assert_eq!(m.comments[0].line, 1);
        assert!(m.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn masks_nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let code = masked_code(src);
        assert!(code.starts_with('a'));
        assert!(code.ends_with('b'));
        assert!(!code.contains("inner"));
        assert!(!code.contains("still"));
        let m = mask(src);
        assert_eq!(m.comments.len(), 1);
        assert!(m.comments[0].text.contains("inner"));
    }

    #[test]
    fn masks_string_contents_and_escaped_quotes() {
        let code = masked_code(r#"let s = "thread_rng \" unwrap()"; next"#);
        assert!(!code.contains("thread_rng"));
        assert!(!code.contains("unwrap"));
        assert!(code.contains("next"));
    }

    #[test]
    fn masks_raw_strings_with_hashes() {
        let code = masked_code(r###"let s = r#"Instant::now() "quoted" "#; tail"###);
        assert!(!code.contains("Instant::now"));
        assert!(!code.contains("quoted"));
        assert!(code.contains("tail"));
    }

    #[test]
    fn masks_byte_and_raw_byte_strings() {
        let code = masked_code(r##"let a = b"panic!"; let b = br#"unwrap"#; ok"##);
        assert!(!code.contains("panic"));
        assert!(!code.contains("unwrap"));
        assert!(code.contains("ok"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // If `'a` were read as an unterminated char literal, everything
        // after it would be masked away.
        let code = masked_code("fn f<'a>(x: &'a str) -> &'a str { x } HashMap");
        assert!(code.contains("HashMap"));
        assert!(code.contains("&'a str"));
    }

    #[test]
    fn char_literals_mask_their_contents() {
        let code = masked_code("let q = '\"'; let esc = '\\''; let l = 'x'; done");
        assert!(!code.contains('x'), "char contents must be masked: {code}");
        assert!(code.contains("done"));
        // The masked quote must not open a string that swallows `done`.
        assert!(!code.contains('"'));
    }

    #[test]
    fn preserves_length_and_line_structure() {
        let src = "a\n/* b\nc */\n\"d\ne\"\nf";
        let m = mask(src);
        assert_eq!(m.code.chars().count(), src.chars().count());
        assert_eq!(
            m.code.matches('\n').count(),
            src.matches('\n').count(),
            "newlines must survive masking"
        );
    }

    #[test]
    fn strip_cfg_test_blanks_test_modules() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let stripped = strip_cfg_test(src);
        assert!(!stripped.contains("unwrap"));
        assert!(stripped.contains("fn prod"));
        assert!(stripped.contains("fn after"));
    }

    #[test]
    fn strip_cfg_test_handles_item_without_braces() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn keep() {}\n";
        let stripped = strip_cfg_test(src);
        assert!(!stripped.contains("foo::bar"));
        assert!(stripped.contains("fn keep"));
    }

    #[test]
    fn non_test_lines_skip_cfg_test_items_whole() {
        // Five lines, three of them (attribute through closing brace)
        // in the test module; a brace in a comment does not end it.
        let src = "/// doc\nfn prod() {}\n#[cfg(test)]\nmod tests { // }\n}\n";
        assert_eq!(non_test_lines(src), 2);
        assert_eq!(non_test_lines("fn a() {}\n\n// note\n"), 3);
    }
}
