//! Plain-text instance format.
//!
//! ```text
//! # optional comment lines
//! udg <n> <radius>
//! <x_0> <y_0>
//! …
//! <x_{n-1}> <y_{n-1}>
//! ```
//!
//! Coordinates round-trip exactly (written with `{:?}`, the shortest
//! representation that parses back to the same `f64`).

use mcds_geom::Point;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use crate::Udg;

/// Error parsing an instance file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseInstanceError {
    line: usize,
    kind: String,
}

impl ParseInstanceError {
    fn new(line: usize, kind: impl Into<String>) -> Self {
        ParseInstanceError {
            line,
            kind: kind.into(),
        }
    }

    /// 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseInstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl Error for ParseInstanceError {}

/// Serializes an instance to the text format.
///
/// ```
/// use mcds_geom::Point;
/// use mcds_udg::{io, Udg};
/// let udg = Udg::build(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.25)]);
/// let text = io::write_instance(&udg);
/// let back = io::parse_instance(&text).unwrap();
/// assert_eq!(back.points(), udg.points());
/// ```
pub fn write_instance(udg: &Udg) -> String {
    let mut out = String::new();
    out.push_str("# mcds unit-disk-graph instance\n");
    out.push_str(&format!("udg {} {:?}\n", udg.len(), udg.radius()));
    for p in udg.points() {
        out.push_str(&format!("{:?} {:?}\n", p.x, p.y));
    }
    out
}

/// Parses the text format back into a [`Udg`] (the graph is rebuilt).
///
/// # Errors
///
/// Returns [`ParseInstanceError`] on malformed headers, non-numeric
/// coordinates, node-count mismatches, or non-finite values.
pub fn parse_instance(text: &str) -> Result<Udg, ParseInstanceError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (hline, header) = lines
        .next()
        .ok_or_else(|| ParseInstanceError::new(0, "empty instance"))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("udg") {
        return Err(ParseInstanceError::new(
            hline,
            "expected `udg <n> <radius>` header",
        ));
    }
    let n: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseInstanceError::new(hline, "bad node count"))?;
    let radius: f64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r > 0.0)
        .ok_or_else(|| ParseInstanceError::new(hline, "bad radius"))?;
    if parts.next().is_some() {
        return Err(ParseInstanceError::new(hline, "trailing tokens in header"));
    }

    // The header's count is only a claim: reserve no more than the text
    // can hold, at four bytes (`0 0` and a line break) per point.
    let mut pts = Vec::with_capacity(n.min(text.len() / 4));
    for (lno, line) in lines {
        if pts.len() == n {
            return Err(ParseInstanceError::new(lno, "more points than declared"));
        }
        let mut nums = line.split_whitespace();
        let x: f64 = nums
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ParseInstanceError::new(lno, "bad x coordinate"))?;
        let y: f64 = nums
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ParseInstanceError::new(lno, "bad y coordinate"))?;
        if nums.next().is_some() {
            return Err(ParseInstanceError::new(
                lno,
                "trailing tokens after coordinates",
            ));
        }
        if !x.is_finite() || !y.is_finite() {
            return Err(ParseInstanceError::new(lno, "non-finite coordinate"));
        }
        pts.push(Point::new(x, y));
    }
    if pts.len() != n {
        return Err(ParseInstanceError::new(
            0,
            format!("declared {n} points but found {}", pts.len()),
        ));
    }
    Ok(Udg::with_radius(pts, radius))
}

/// Writes an instance to a file.
///
/// # Errors
///
/// Propagates I/O errors from the filesystem.
pub fn save_instance<P: AsRef<Path>>(udg: &Udg, path: P) -> std::io::Result<()> {
    fs::write(path, write_instance(udg))
}

/// Loads an instance from a file.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, or a boxed
/// [`ParseInstanceError`] if its contents are malformed.
pub fn load_instance<P: AsRef<Path>>(path: P) -> Result<Udg, Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    Ok(parse_instance(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Udg {
        Udg::with_radius(
            vec![
                Point::new(0.1, 0.2),
                Point::new(0.30000000000000004, -1.5),
                Point::new(2.0, 2.0),
            ],
            1.25,
        )
    }

    #[test]
    fn roundtrip_exact() {
        let udg = sample();
        let text = write_instance(&udg);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back.points(), udg.points());
        assert_eq!(back.radius(), udg.radius());
        assert_eq!(back.graph(), udg.graph());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hi\n\nudg 1 1.0\n# mid comment\n 0.5 0.5 \n";
        let udg = parse_instance(text).unwrap();
        assert_eq!(udg.len(), 1);
        assert_eq!(udg.points()[0], Point::new(0.5, 0.5));
    }

    #[test]
    fn header_errors() {
        assert!(parse_instance("").is_err());
        assert!(parse_instance("nope 3 1.0").is_err());
        assert!(parse_instance("udg x 1.0").is_err());
        assert!(parse_instance("udg 1 0.0\n0 0").is_err());
        assert!(parse_instance("udg 1 1.0 extra\n0 0").is_err());
    }

    #[test]
    fn body_errors_carry_line_numbers() {
        let e = parse_instance("udg 2 1.0\n0 0\nfoo 1").unwrap_err();
        assert_eq!(e.line(), 3);
        assert!(e.to_string().contains("bad x"));
        let e2 = parse_instance("udg 2 1.0\n0 0").unwrap_err();
        assert!(e2.to_string().contains("declared 2"));
        let e3 = parse_instance("udg 1 1.0\n0 0\n1 1").unwrap_err();
        assert!(e3.to_string().contains("more points"));
        let e4 = parse_instance("udg 1 1.0\n0 0 0").unwrap_err();
        assert!(e4.to_string().contains("trailing"));
        let e5 = parse_instance("udg 1 1.0\ninf 0").unwrap_err();
        assert!(e5.to_string().contains("non-finite"));
        // A count no text could hold must not size an allocation.
        for n in ["18446744073709551615", "1000000000000"] {
            let e = parse_instance(&format!("udg {n} 1.0\n0 0")).unwrap_err();
            assert_eq!(
                e.to_string(),
                format!("line 0: declared {n} points but found 1")
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mcds_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.udg");
        let udg = sample();
        save_instance(&udg, &path).unwrap();
        let back = load_instance(&path).unwrap();
        assert_eq!(back.points(), udg.points());
        fs::remove_file(path).ok();
    }
}
