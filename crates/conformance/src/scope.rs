//! A lightweight scope tracker over the token stream.
//!
//! Three pieces of context the rules need that single tokens cannot
//! carry:
//!
//! * **Test regions** — the body of any item annotated `#[test]` or
//!   `#[cfg(test)]` (attribute arguments are token-matched, so
//!   `#[cfg(all(test, feature = "x"))]` counts and
//!   `#[cfg(feature = "test")]` does not). Most rules exempt test code.
//! * **`Protocol` impl blocks** — the body of any
//!   `impl … Protocol for …` (the trait segment immediately before
//!   `for` must end in `Protocol`, so `RadioProtocol` counts and a
//!   `P: Protocol` bound on some other impl does not). Protocol code
//!   runs inside every run, and sweep and serve workers execute runs on
//!   parallel threads, so these blocks are lane-executed code wherever
//!   the file lives — the `shard-safety` and `determinism` families
//!   apply inside them.
//! * **`use` aliases** — `use std::sync::Mutex as Lock;` makes `Lock`
//!   the name to lint. Every `… as alias` pair in a `use` declaration
//!   (grouped imports included) is recorded so rules resolve aliases
//!   back to the imported name.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};

/// Per-token scope context, parallel to the token stream.
#[derive(Debug, Default)]
pub struct ScopeMap {
    /// `in_test[i]` — token `i` lies inside a test item's braces.
    pub in_test: Vec<bool>,
    /// `in_protocol_impl[i]` — token `i` lies inside an
    /// `impl … Protocol for …` body.
    pub in_protocol_impl: Vec<bool>,
    /// `use … as` aliases: alias → imported (final) name.
    pub aliases: BTreeMap<String, String>,
}

fn is_code(kind: TokKind) -> bool {
    !matches!(kind, TokKind::LineComment | TokKind::BlockComment)
}

/// Walks the token stream once and derives the [`ScopeMap`].
pub fn analyze(toks: &[Tok<'_>]) -> ScopeMap {
    let mut map = ScopeMap {
        in_test: vec![false; toks.len()],
        in_protocol_impl: vec![false; toks.len()],
        aliases: BTreeMap::new(),
    };
    let mut depth = 0usize;
    // Open region stack entries: the depth their body brace opened at.
    let mut test_stack: Vec<usize> = Vec::new();
    let mut proto_stack: Vec<usize> = Vec::new();
    // A test attribute was seen; the next item body (or `;`) resolves it.
    let mut pending_test = false;
    // Inside an `impl` header (between `impl` and its body `{`): the
    // idents collected so far, to classify the trait at the brace.
    let mut impl_header: Option<Vec<String>> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Flags reflect the regions open *before* this token takes its
        // structural effect, except `{`, which belongs to the header.
        map.in_test[i] = !test_stack.is_empty() || pending_test;
        map.in_protocol_impl[i] = !proto_stack.is_empty();
        if !is_code(t.kind) {
            i += 1;
            continue;
        }
        match (t.kind, t.text) {
            (TokKind::Punct, "#") if toks.get(i + 1).map(|t| t.text) == Some("[") => {
                // Attribute: scan to the matching `]`, token-matching
                // `test` as an argument ident.
                let mut j = i + 2;
                let mut level = 1usize;
                let mut first_ident: Option<&str> = None;
                let mut saw_test_ident = false;
                while j < toks.len() && level > 0 {
                    let a = &toks[j];
                    match (a.kind, a.text) {
                        (TokKind::Punct, "[") => level += 1,
                        (TokKind::Punct, "]") => level -= 1,
                        (TokKind::Ident, name) => {
                            if first_ident.is_none() {
                                first_ident = Some(name);
                            }
                            if name == "test" {
                                saw_test_ident = true;
                            }
                        }
                        _ => {}
                    }
                    map.in_test[j] = !test_stack.is_empty() || pending_test;
                    map.in_protocol_impl[j] = !proto_stack.is_empty();
                    j += 1;
                }
                let is_test_attr = match first_ident {
                    Some("test") => true,
                    Some("cfg") => saw_test_ident,
                    _ => false,
                };
                if is_test_attr {
                    pending_test = true;
                }
                i = j;
                continue;
            }
            (TokKind::Ident, "impl") if test_stack.is_empty() => {
                impl_header = Some(Vec::new());
            }
            (TokKind::Ident, "use") => {
                // Scan the declaration to its `;`, recording `X as Y`.
                let mut j = i + 1;
                let mut group = 0usize;
                let mut last_ident: Option<&str> = None;
                while j < toks.len() {
                    let a = &toks[j];
                    map.in_test[j] = !test_stack.is_empty() || pending_test;
                    map.in_protocol_impl[j] = !proto_stack.is_empty();
                    match (a.kind, a.text) {
                        (TokKind::Punct, "{") => group += 1,
                        (TokKind::Punct, "}") => group = group.saturating_sub(1),
                        (TokKind::Punct, ";") if group == 0 => {
                            j += 1;
                            break;
                        }
                        (TokKind::Ident, "as") => {
                            if let (Some(orig), Some(alias)) = (
                                last_ident,
                                toks.get(j + 1)
                                    .filter(|t| t.kind == TokKind::Ident)
                                    .map(|t| t.text),
                            ) {
                                map.aliases.insert(alias.to_string(), orig.to_string());
                            }
                        }
                        (TokKind::Ident, name) => last_ident = Some(name),
                        _ => {}
                    }
                    j += 1;
                }
                // A `#[cfg(test)] use …;` is a fully gated single item.
                pending_test = false;
                i = j;
                continue;
            }
            (TokKind::Ident, name) => {
                if let Some(header) = impl_header.as_mut() {
                    header.push(name.to_string());
                }
            }
            (TokKind::Punct, "{") => {
                if let Some(header) = impl_header.take() {
                    // Trait segment is the ident right before `for`.
                    let is_protocol = header
                        .iter()
                        .position(|w| w == "for")
                        .and_then(|f| f.checked_sub(1))
                        .map(|t| header[t].ends_with("Protocol"))
                        .unwrap_or(false);
                    if is_protocol {
                        proto_stack.push(depth);
                        // The impl body itself is protocol scope.
                        map.in_protocol_impl[i] = true;
                    }
                }
                if pending_test {
                    pending_test = false;
                    test_stack.push(depth);
                    map.in_test[i] = true;
                }
                depth += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                if test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                if proto_stack.last() == Some(&depth) {
                    proto_stack.pop();
                }
            }
            (TokKind::Punct, ";") => {
                // `#[cfg(test)] mod tests;` / `use …;` — single item.
                pending_test = false;
            }
            _ => {}
        }
        i += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn flags_for(src: &str, needle: &str) -> (bool, bool) {
        let toks = lex(src);
        let map = analyze(&toks);
        let idx = toks
            .iter()
            .position(|t| t.text == needle)
            .unwrap_or_else(|| panic!("token {needle:?} not found"));
        (map.in_test[idx], map.in_protocol_impl[idx])
    }

    #[test]
    fn cfg_test_region_opens_and_closes() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { inner(); }\n}\nfn prod() { outer(); }\n";
        assert_eq!(flags_for(src, "inner"), (true, false));
        assert_eq!(flags_for(src, "outer"), (false, false));
    }

    #[test]
    fn cfg_feature_test_string_is_not_a_test_region() {
        let src = "#[cfg(feature = \"test\")]\nfn f() { inner(); }\n";
        assert_eq!(flags_for(src, "inner"), (false, false));
    }

    #[test]
    fn cfg_all_with_test_ident_counts() {
        let src = "#[cfg(all(test, unix))]\nmod t { fn f() { inner(); } }\n";
        assert_eq!(flags_for(src, "inner"), (true, false));
    }

    #[test]
    fn single_gated_item_does_not_swallow_the_file() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() { outer(); }\n";
        assert_eq!(flags_for(src, "outer"), (false, false));
    }

    #[test]
    fn stacked_attributes_keep_pending() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn f() { inner(); }\n";
        assert_eq!(flags_for(src, "inner"), (true, false));
    }

    #[test]
    fn protocol_impl_block_is_marked() {
        let src = "impl Protocol for Flood {\n fn send() { inner(); }\n}\nfn free() { outer(); }\n";
        assert_eq!(flags_for(src, "inner"), (false, true));
        assert_eq!(flags_for(src, "outer"), (false, false));
    }

    #[test]
    fn radio_protocol_and_generic_impls_are_marked() {
        let src = "impl<P: Protocol> Protocol for AlwaysAwake<P> { fn g() { inner(); } }";
        assert_eq!(flags_for(src, "inner"), (false, true));
        let src2 = "impl RadioProtocol for RadioBroadcast { fn g() { inner2(); } }";
        assert_eq!(flags_for(src2, "inner2"), (false, true));
    }

    #[test]
    fn protocol_bound_on_other_impl_is_not_marked() {
        let src = "impl<P: Protocol> AlgorithmSpec for Wrapper<P> { fn g() { inner(); } }";
        assert_eq!(flags_for(src, "inner"), (false, false));
    }

    #[test]
    fn use_aliases_are_recorded_including_groups() {
        let toks = lex("use std::sync::Mutex as Lock;\nuse std::cell::{Cell as C, RefCell};\n");
        let map = analyze(&toks);
        assert_eq!(map.aliases.get("Lock").map(String::as_str), Some("Mutex"));
        assert_eq!(map.aliases.get("C").map(String::as_str), Some("Cell"));
        assert!(!map.aliases.contains_key("RefCell"));
    }

    #[test]
    fn test_impl_inside_test_module_stays_test() {
        let src = "#[cfg(test)]\nmod tests {\n impl Protocol for Fake { fn f() { inner(); } }\n}\n";
        let (in_test, _) = flags_for(src, "inner");
        assert!(in_test);
    }
}
