//! Self-contained HTML report rendering.
//!
//! Every artifact the workspace emits — metrics JSONL, explain reports,
//! windowed time series, sweep utilization, span traces, contention
//! rows — is machine-readable but reviewer-hostile. This module
//! family turns them into a single static HTML page that renders offline:
//! no JavaScript, no external stylesheets or fonts, no network fetches.
//! Charts are hand-rolled inline SVG ([`svg`]); tables and prose are
//! plain HTML assembled by [`HtmlPage`]/[`Section`].
//!
//! Two invariants hold for every page built here:
//!
//! * **Escaping** — all text that can carry user-controlled bytes (trace
//!   paths, strategy and benchmark names, manifest labels) flows through
//!   [`escape_html`] before it reaches markup, mirroring the Prometheus
//!   label escaping in [`labeled`](crate::labeled). Builder methods take
//!   plain text and escape internally; the only way to inject raw markup
//!   is the explicitly-named [`Section::push_html`].
//! * **Determinism** — the same inputs produce byte-identical output.
//!   Nothing here reads the clock, the environment, or iterates a
//!   hash map; callers sort map-like data before rendering. Golden tests
//!   in `seta-bench` pin the bytes.
//!
//! The page deep-links the artifact paths each section was loaded from
//! (see [`Section::artifact`]), so the HTML is an index over the raw
//! data, not a replacement for it.

pub mod sections;
pub mod svg;

/// Escapes a string for safe interpolation into HTML text or a
/// double-quoted attribute value: `&`, `<`, `>`, `"` and `'` become
/// entity references; everything else passes through.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a float for display: trims trailing zeros from a fixed-point
/// rendering whose precision scales with magnitude, so axis ticks and
/// table cells stay short without losing the digits that matter.
/// Deterministic (Rust float formatting is platform-independent).
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    let s = if v == 0.0 {
        return "0".into();
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    };
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    } else {
        s
    }
}

/// One cell of an [`HtmlTable`]: display text plus an optional CSS class
/// (`"good"`, `"bad"`, `"pos"`, `"neg"`, `"num"`).
#[derive(Debug, Clone)]
pub struct Cell {
    text: String,
    class: Option<&'static str>,
}

impl Cell {
    /// A plain text cell.
    pub fn text(t: impl Into<String>) -> Cell {
        Cell {
            text: t.into(),
            class: None,
        }
    }

    /// A right-aligned numeric cell.
    pub fn num(v: f64) -> Cell {
        Cell {
            text: fmt_num(v),
            class: Some("num"),
        }
    }

    /// A right-aligned integer cell.
    pub fn int(v: u64) -> Cell {
        Cell {
            text: v.to_string(),
            class: Some("num"),
        }
    }

    /// A cell with an explicit CSS class.
    pub fn classed(t: impl Into<String>, class: &'static str) -> Cell {
        Cell {
            text: t.into(),
            class: Some(class),
        }
    }
}

/// A simple data table; header and body text are escaped at render time.
#[derive(Debug, Clone, Default)]
pub struct HtmlTable {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl HtmlTable {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> HtmlTable {
        HtmlTable {
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one body row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        self.rows.push(cells);
    }

    /// Number of body rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no body rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as HTML markup.
    pub fn render(&self) -> String {
        let mut out = String::from("<table>\n<thead><tr>");
        for h in &self.headers {
            out.push_str("<th>");
            out.push_str(&escape_html(h));
            out.push_str("</th>");
        }
        out.push_str("</tr></thead>\n<tbody>\n");
        for row in &self.rows {
            out.push_str("<tr>");
            for cell in row {
                match cell.class {
                    Some(c) => out.push_str(&format!("<td class=\"{c}\">")),
                    None => out.push_str("<td>"),
                }
                out.push_str(&escape_html(&cell.text));
                out.push_str("</td>");
            }
            out.push_str("</tr>\n");
        }
        out.push_str("</tbody>\n</table>\n");
        out
    }
}

/// One titled, anchor-linkable section of a report page.
#[derive(Debug, Clone)]
pub struct Section {
    id: String,
    title: String,
    body: String,
}

impl Section {
    /// A new empty section; `id` becomes the anchor (`#id`), `title` the
    /// `<h2>` heading. Both are escaped at render time.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Section {
        Section {
            id: id.into(),
            title: title.into(),
            body: String::new(),
        }
    }

    /// The section's anchor id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The section's heading.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Appends a paragraph of escaped text.
    pub fn para(&mut self, text: &str) {
        self.body.push_str("<p>");
        self.body.push_str(&escape_html(text));
        self.body.push_str("</p>\n");
    }

    /// Appends a dimmed note paragraph (escaped).
    pub fn note(&mut self, text: &str) {
        self.body.push_str("<p class=\"note\">");
        self.body.push_str(&escape_html(text));
        self.body.push_str("</p>\n");
    }

    /// Appends pre-rendered markup verbatim. The caller vouches that any
    /// untrusted text inside already went through [`escape_html`] — this
    /// is the single deliberate escape hatch, named so greps find it.
    pub fn push_html(&mut self, markup: &str) {
        self.body.push_str(markup);
        self.body.push('\n');
    }

    /// Appends a deep link to an underlying artifact file. The path is
    /// escaped and linked relatively, so the page stays an index over the
    /// raw data without fetching anything itself.
    pub fn artifact(&mut self, label: &str, path: &str) {
        self.body.push_str(&format!(
            "<p class=\"artifact\">{}: <a href=\"{}\"><code>{}</code></a></p>\n",
            escape_html(label),
            escape_html(path),
            escape_html(path)
        ));
    }

    /// Appends a key/value definition table (both sides escaped).
    pub fn kv(&mut self, rows: &[(&str, String)]) {
        self.body.push_str("<table class=\"kv\"><tbody>\n");
        for (k, v) in rows {
            self.body.push_str(&format!(
                "<tr><th>{}</th><td>{}</td></tr>\n",
                escape_html(k),
                escape_html(v)
            ));
        }
        self.body.push_str("</tbody></table>\n");
    }

    /// Appends a data table.
    pub fn table(&mut self, t: &HtmlTable) {
        self.body.push_str(&t.render());
    }

    /// Appends a sub-heading inside the section (escaped).
    pub fn heading(&mut self, text: &str) {
        self.body.push_str("<h3>");
        self.body.push_str(&escape_html(text));
        self.body.push_str("</h3>\n");
    }

    fn render(&self) -> String {
        format!(
            "<section id=\"{}\">\n<h2>{}</h2>\n{}</section>\n",
            escape_html(&self.id),
            escape_html(&self.title),
            self.body
        )
    }
}

/// The embedded stylesheet: everything the page needs, nothing fetched.
const STYLE: &str = "\
body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:72rem;\
padding:0 1rem;color:#1c1e21;background:#fff;line-height:1.45}\
h1{font-size:1.5rem;border-bottom:2px solid #1c1e21;padding-bottom:.3rem}\
h2{font-size:1.2rem;margin-top:2.2rem;border-bottom:1px solid #ccc;\
padding-bottom:.2rem}\
h3{font-size:1rem;margin-top:1.4rem}\
nav.toc{font-size:.9rem;margin:.8rem 0}\
nav.toc a{margin-right:1rem}\
table{border-collapse:collapse;margin:.8rem 0;font-size:.85rem}\
th,td{border:1px solid #d0d4d9;padding:.25rem .55rem;text-align:left}\
thead th{background:#f2f4f6}\
table.kv th{background:#f2f4f6;font-weight:600;width:14rem}\
td.num{text-align:right;font-variant-numeric:tabular-nums}\
td.good{background:#e6f4ea;text-align:right}\
td.bad{background:#fce8e6;text-align:right;font-weight:600}\
td.pos{color:#a50e0e;text-align:right}\
td.neg{color:#0b8043;text-align:right}\
p.note{color:#667;font-size:.85rem}\
p.artifact{font-size:.85rem;color:#445}\
p.artifact code{background:#f2f4f6;padding:.1rem .3rem}\
svg{margin:.6rem 0;max-width:100%;height:auto}\
footer{margin-top:3rem;border-top:1px solid #ccc;color:#667;\
font-size:.8rem;padding-top:.4rem}";

/// A complete report page: title, table of contents, sections, footer.
#[derive(Debug, Clone)]
pub struct HtmlPage {
    title: String,
    subtitle: Option<String>,
    sections: Vec<Section>,
    refresh_secs: Option<u64>,
}

impl HtmlPage {
    /// A new page with the given `<h1>` title.
    pub fn new(title: impl Into<String>) -> HtmlPage {
        HtmlPage {
            title: title.into(),
            subtitle: None,
            sections: Vec::new(),
            refresh_secs: None,
        }
    }

    /// Sets a dimmed subtitle line under the title (escaped).
    pub fn subtitle(&mut self, text: impl Into<String>) {
        self.subtitle = Some(text.into());
    }

    /// Switches the page into live mode: the rendered head carries a
    /// `<meta http-equiv="refresh">` so browsers re-fetch every `secs`
    /// seconds with zero JavaScript. A live page fails
    /// [`validate_self_contained`] by design (static reports must never
    /// self-refresh); validate it with [`validate_live_page`] instead.
    pub fn live_refresh(&mut self, secs: u64) {
        self.refresh_secs = Some(secs.max(1));
    }

    /// Appends a section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Renders the whole page: a single self-contained HTML document with
    /// an embedded stylesheet and no external references.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n");
        out.push_str("<meta charset=\"utf-8\">\n");
        if let Some(secs) = self.refresh_secs {
            out.push_str(&format!(
                "<meta http-equiv=\"refresh\" content=\"{secs}\">\n"
            ));
        }
        out.push_str(&format!("<title>{}</title>\n", escape_html(&self.title)));
        out.push_str(&format!("<style>{STYLE}</style>\n"));
        out.push_str("</head>\n<body>\n");
        out.push_str(&format!("<h1>{}</h1>\n", escape_html(&self.title)));
        if let Some(sub) = &self.subtitle {
            out.push_str(&format!("<p class=\"note\">{}</p>\n", escape_html(sub)));
        }
        if self.sections.len() > 1 {
            out.push_str("<nav class=\"toc\">\n");
            for s in &self.sections {
                out.push_str(&format!(
                    "<a href=\"#{}\">{}</a>\n",
                    escape_html(&s.id),
                    escape_html(&s.title)
                ));
            }
            out.push_str("</nav>\n");
        }
        for s in &self.sections {
            out.push_str(&s.render());
        }
        out.push_str("<footer>generated offline by seta-report; all charts are inline SVG, no scripts or external resources</footer>\n");
        out.push_str("</body>\n</html>\n");
        out
    }
}

/// Validates that a rendered page is well-formed and self-contained:
/// balanced open/close tags (modulo void elements) and no external
/// resource references (`src=` attributes, `http(s):` or
/// protocol-relative `href`s, CSS `url(...)` or `@import`). Returns the
/// number of elements checked. This is the same contract the CI
/// `report-smoke` job enforces independently.
pub fn validate_self_contained(html: &str) -> Result<usize, String> {
    let lower = html.to_lowercase();
    if !lower.starts_with("<!doctype html>") {
        return Err("missing <!DOCTYPE html> prologue".into());
    }
    if lower.contains(REFRESH_MARKER) {
        return Err("meta refresh found — static reports must not self-refresh \
                    (use validate_live_page for live pages)"
            .into());
    }
    for needle in ["<script", " src=", "url(", "@import", "<iframe", "<img"] {
        if lower.contains(needle) {
            return Err(format!("external/active content marker {needle:?} found"));
        }
    }
    for needle in ["href=\"http:", "href=\"https:", "href=\"//"] {
        if lower.contains(needle) {
            return Err(format!("external link {needle:?} found"));
        }
    }
    const VOID: [&str; 6] = ["br", "hr", "meta", "link", "input", "wbr"];
    let mut stack: Vec<String> = Vec::new();
    let mut checked = 0usize;
    let bytes = html.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        let rest = &html[i..];
        if rest.starts_with("<!--") {
            i += rest.find("-->").ok_or("unterminated comment")? + 3;
            continue;
        }
        if rest.starts_with("<!") {
            i += rest.find('>').ok_or("unterminated declaration")? + 1;
            continue;
        }
        let end = rest.find('>').ok_or("unterminated tag")?;
        let inner = &rest[1..end];
        let closing = inner.starts_with('/');
        let self_closed = inner.ends_with('/');
        let name: String = inner
            .trim_start_matches('/')
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_lowercase();
        if name.is_empty() {
            return Err(format!("malformed tag near byte {i}"));
        }
        checked += 1;
        if closing {
            match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => return Err(format!("mismatched </{name}> (open <{open}>)")),
                None => return Err(format!("stray </{name}>")),
            }
        } else if !self_closed && !VOID.contains(&name.as_str()) {
            stack.push(name);
        }
        i += end + 1;
    }
    if let Some(open) = stack.pop() {
        return Err(format!("unclosed <{open}>"));
    }
    Ok(checked)
}

/// The one marker that distinguishes a live page from a static report.
const REFRESH_MARKER: &str = "<meta http-equiv=\"refresh\"";

/// [`validate_self_contained`] for live dashboard pages: identical checks
/// (balanced tags, no scripts, no external resources), except that
/// exactly one `<meta http-equiv="refresh">` element — the auto-refresh
/// strip [`HtmlPage::live_refresh`] injects — is required and permitted.
pub fn validate_live_page(html: &str) -> Result<usize, String> {
    // Byte-index over `html` itself (not a lowercased copy, whose byte
    // offsets can drift on non-ASCII titles); the renderer always emits
    // the marker in this exact casing.
    let first = match html.find(REFRESH_MARKER) {
        Some(i) => i,
        None => return Err("live page is missing its meta refresh".into()),
    };
    if html[first + REFRESH_MARKER.len()..].contains(REFRESH_MARKER) {
        return Err("more than one meta refresh found".into());
    }
    let end = first
        + html[first..]
            .find('>')
            .ok_or("unterminated meta refresh tag")?
        + 1;
    let mut stripped = String::with_capacity(html.len());
    stripped.push_str(&html[..first]);
    stripped.push_str(&html[end..]);
    validate_self_contained(&stripped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_all_dangerous_chars() {
        assert_eq!(
            escape_html("<a href=\"x\">&'</a>"),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;&lt;/a&gt;"
        );
        assert_eq!(escape_html("plain"), "plain");
    }

    #[test]
    fn fmt_num_trims_and_scales() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(0.5), "0.5");
        assert_eq!(fmt_num(1.25), "1.25");
        assert_eq!(fmt_num(12.5), "12.5");
        assert_eq!(fmt_num(1234.7), "1235");
        assert_eq!(fmt_num(f64::NAN), "-");
    }

    #[test]
    fn untrusted_text_is_escaped_everywhere() {
        // A hostile "trace path" must never survive into markup unescaped:
        // not in paragraphs, artifact links, table cells, kv rows, section
        // titles, or the page title.
        let evil = "<script>alert(1)</script>";
        let mut section = Section::new("s", evil);
        section.para(evil);
        section.artifact(evil, evil);
        section.kv(&[(evil, evil.to_owned())]);
        let mut t = HtmlTable::new(&[evil]);
        t.row(vec![Cell::text(evil)]);
        section.table(&t);
        let mut page = HtmlPage::new(evil);
        page.subtitle(evil);
        page.push(section);
        let html = page.render();
        assert!(!html.contains("<script"), "unescaped injection:\n{html}");
        assert!(validate_self_contained(&html).is_ok());
    }

    #[test]
    fn minimal_page_is_self_contained() {
        let mut page = HtmlPage::new("t");
        let mut s = Section::new("a", "A");
        s.para("hello");
        page.push(s);
        let html = page.render();
        let n = validate_self_contained(&html).expect("well-formed");
        assert!(n > 10, "expected a real element count, got {n}");
    }

    #[test]
    fn validator_rejects_imbalance_and_external_refs() {
        assert!(validate_self_contained("<p>x</p>").is_err(), "no doctype");
        let bad = "<!DOCTYPE html>\n<html><body><p>x</body></html>";
        assert!(validate_self_contained(bad).is_err(), "unclosed <p>");
        let ext = "<!DOCTYPE html>\n<html><body><a href=\"https://x\">x</a></body></html>";
        assert!(validate_self_contained(ext).is_err(), "external href");
        let img = "<!DOCTYPE html>\n<html><body><img src=\"x.png\"></body></html>";
        assert!(validate_self_contained(img).is_err(), "img src");
    }

    #[test]
    fn live_pages_validate_only_in_live_mode() {
        let mut page = HtmlPage::new("live");
        let mut s = Section::new("a", "A");
        s.para("running");
        page.push(s);
        // Static mode: self-contained, but not a live page.
        let static_html = page.render();
        assert!(validate_self_contained(&static_html).is_ok());
        assert!(validate_live_page(&static_html).is_err(), "no refresh meta");
        // Live mode: the refresh meta flips which validator accepts it.
        page.live_refresh(2);
        let live_html = page.render();
        assert!(live_html.contains("<meta http-equiv=\"refresh\" content=\"2\">"));
        let err = validate_self_contained(&live_html).unwrap_err();
        assert!(err.contains("refresh"), "{err}");
        let n = validate_live_page(&live_html).expect("live page validates");
        assert!(n > 10);
    }

    #[test]
    fn live_validator_rejects_double_refresh_and_external_content() {
        let double = "<!DOCTYPE html>\n<html><head>\
            <meta http-equiv=\"refresh\" content=\"1\">\
            <meta http-equiv=\"refresh\" content=\"2\">\
            </head><body></body></html>";
        assert!(validate_live_page(double).is_err());
        let scripted = "<!DOCTYPE html>\n<html><head>\
            <meta http-equiv=\"refresh\" content=\"1\">\
            </head><body><script>x()</script></body></html>";
        assert!(
            validate_live_page(scripted).is_err(),
            "scripts still banned"
        );
    }

    #[test]
    fn live_refresh_clamps_to_at_least_one_second() {
        let mut page = HtmlPage::new("t");
        page.live_refresh(0);
        assert!(page.render().contains("content=\"1\""));
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let mut page = HtmlPage::new("same");
            let mut s = Section::new("a", "A");
            s.para("x");
            s.kv(&[("k", "v".to_owned())]);
            page.push(s);
            page.render()
        };
        assert_eq!(build(), build());
    }
}
