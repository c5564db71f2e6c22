//! Minimal XML well-formedness checker, mirroring the RFC 8259 JSON
//! parser in [`json`](crate::json).
//!
//! The flamegraph renderer ([`Profile::to_svg`](crate::Profile::to_svg)) assembles SVG
//! by hand (the workspace is hermetic — no XML library), so "does the
//! output actually parse" is a real risk, exactly as it was for the JSON
//! exporters. This module ships a small recursive-descent checker used
//! by unit tests and the `slicer-cli profile --check` smoke path. It
//! validates *well-formedness* (XML 1.0 §2.1): prolog, one root element,
//! balanced and properly nested tags, attribute syntax, entity and
//! character references, comments. It does not validate against a DTD or
//! schema.

use crate::json::MAX_DEPTH;
use std::fmt;

/// Where and why validation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Appends `value` to `out` with the five XML special characters escaped
/// — the writer-side counterpart of the checker, used by the SVG
/// renderer for attribute values and text content.
pub fn write_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

/// Validates that `input` is one well-formed XML document: optional
/// declaration and misc, exactly one root element, nothing but misc
/// after it. Returns `Ok(())` or the first error encountered. Does not
/// build a tree.
///
/// # Errors
///
/// [`XmlError`] carrying the byte offset and reason of the first
/// violation, including elements nested deeper than
/// [`MAX_DEPTH`](crate::json::MAX_DEPTH) (the checker recurses once per
/// level, and it reads SVG received over the wire).
pub fn check(input: &str) -> Result<(), XmlError> {
    let mut p = Checker {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    if p.bytes.starts_with("\u{feff}".as_bytes()) {
        p.pos += 3; // tolerate a UTF-8 BOM
    }
    p.skip_misc(true)?;
    p.element()?;
    p.skip_misc(false)?;
    if p.pos != p.bytes.len() {
        return Err(p.err("content after the root element"));
    }
    Ok(())
}

struct Checker<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Elements open at `pos`.
    depth: usize,
}

impl<'a> Checker<'a> {
    fn err(&self, message: &str) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Whitespace, comments, processing instructions — and, when
    /// `allow_decl`, the `<?xml ...?>` declaration (prolog position
    /// only).
    fn skip_misc(&mut self, allow_decl: bool) -> Result<(), XmlError> {
        let mut first = true;
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.comment()?;
            } else if self.starts_with("<?") {
                if self.starts_with("<?xml") && !(allow_decl && first) {
                    return Err(self.err("xml declaration not at document start"));
                }
                self.processing_instruction()?;
            } else {
                return Ok(());
            }
            first = false;
        }
    }

    fn comment(&mut self) -> Result<(), XmlError> {
        self.pos += 4; // past "<!--"
        loop {
            if self.starts_with("--") {
                return if self.starts_with("-->") {
                    self.pos += 3;
                    Ok(())
                } else {
                    Err(self.err("'--' inside a comment"))
                };
            }
            if self.peek().is_none() {
                return Err(self.err("unterminated comment"));
            }
            self.pos += 1;
        }
    }

    fn processing_instruction(&mut self) -> Result<(), XmlError> {
        self.pos += 2; // past "<?"
        while !self.starts_with("?>") {
            if self.peek().is_none() {
                return Err(self.err("unterminated processing instruction"));
            }
            self.pos += 1;
        }
        self.pos += 2;
        Ok(())
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' || c == b':' => self.pos += 1,
            _ => return Err(self.err("expected a name")),
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'.' | b'_' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// An entity (`&amp;` etc.) or character (`&#…;` / `&#x…;`)
    /// reference, positioned on the `&`.
    fn reference(&mut self) -> Result<(), XmlError> {
        self.pos += 1; // past '&'
        if self.peek() == Some(b'#') {
            self.pos += 1;
            let hex = self.peek() == Some(b'x');
            if hex {
                self.pos += 1;
            }
            let mut digits = 0;
            while let Some(c) = self.peek() {
                let ok = if hex {
                    c.is_ascii_hexdigit()
                } else {
                    c.is_ascii_digit()
                };
                if !ok {
                    break;
                }
                self.pos += 1;
                digits += 1;
            }
            if digits == 0 || self.peek() != Some(b';') {
                return Err(self.err("bad character reference"));
            }
            self.pos += 1;
            return Ok(());
        }
        let name = self.name().map_err(|_| self.err("bad entity reference"))?;
        if !matches!(name.as_str(), "amp" | "lt" | "gt" | "quot" | "apos") {
            return Err(self.err(&format!("unknown entity &{name};")));
        }
        if self.peek() != Some(b';') {
            return Err(self.err("entity reference missing ';'"));
        }
        self.pos += 1;
        Ok(())
    }

    fn attribute_value(&mut self) -> Result<(), XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected a quoted attribute value")),
        };
        self.pos += 1;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(q) if q == quote => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'<') => return Err(self.err("raw '<' in attribute value")),
                Some(b'&') => self.reference()?,
                Some(_) => self.pos += 1,
            }
        }
    }

    /// One element, positioned on its opening `<`. Recurses into
    /// children; validates that the closing tag matches.
    fn element(&mut self) -> Result<(), XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected an element"));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        let open = self.name()?;
        // Attributes until `>` or `/>`.
        loop {
            let before = self.pos;
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(()); // self-closing
                }
                Some(_) => {
                    if before == self.pos {
                        return Err(self.err("expected whitespace before attribute"));
                    }
                    self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    self.attribute_value()?;
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Content: text, references, comments, child elements.
        loop {
            match self.peek() {
                None => return Err(self.err(&format!("unterminated element <{open}>"))),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != open {
                            return Err(self
                                .err(&format!("mismatched closing tag </{close}> for <{open}>")));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(self.err("expected '>' in closing tag"));
                        }
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.comment()?;
                    } else if self.starts_with("<?") {
                        self.processing_instruction()?;
                    } else {
                        self.element()?;
                    }
                }
                Some(b'&') => self.reference()?,
                Some(_) => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "<a/>",
            "<a></a>",
            "<?xml version=\"1.0\"?><svg xmlns=\"http://www.w3.org/2000/svg\"><rect/></svg>",
            "<a b=\"1\" c='two'><d>text &amp; &#38; &#x26; more</d><!-- note --></a>",
            "  <!-- leading --> <root><nested><deep/></nested>tail</root> ",
            "<a:b xmlns:a=\"urn:x\"/>",
        ] {
            check(doc).unwrap_or_else(|e| panic!("rejected well-formed: {doc}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "plain text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a b></a>",
            "<a b=1></a>",
            "<a b=\"unterminated></a>",
            "<a>&unknown;</a>",
            "<a>&#;</a>",
            "<a>bare & ampersand</a>",
            "<a/><b/>",
            "<a><!-- -- --></a>",
            "<a></a> trailing",
            "<a attr=\"<\"></a>",
        ] {
            assert!(check(doc).is_err(), "accepted malformed: {doc}");
        }
    }

    #[test]
    fn write_escaped_round_trips_through_check() {
        let mut body = String::new();
        write_escaped(&mut body, "a<b & \"c\" 'd' >e");
        let doc = format!("<t name=\"{body}\">{body}</t>");
        check(&doc).unwrap_or_else(|e| panic!("escaped text invalid: {e}\n{doc}"));
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let doc = format!("{}{}", "<a>".repeat(1_000_000), "</a>".repeat(1_000_000));
        let e = check(&doc).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH * 3);
        assert!(e.message.contains("nested"), "{e}");
        let ok = format!("{}{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        check(&ok).unwrap();
        // Siblings do not accumulate depth.
        check(&format!("<r>{}</r>", "<a><b/></a>".repeat(1_000))).unwrap();
    }

    #[test]
    fn error_reports_offset() {
        let e = check("<a><b></c></a>").unwrap_err();
        assert!(e.to_string().contains("byte"));
        assert!(e.message.contains("mismatched"));
    }
}
