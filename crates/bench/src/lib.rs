//! Shared helpers for the experiment binaries.
//!
//! The binaries under `src/bin/` regenerate the paper's tables and
//! figures, printing the paper's reported values next to the measured
//! ones; `hima_cli` runs them by name and drives the serving stack.

/// Prints a section header in the common format.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Formats a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Renders a percentage bar for terminal plots.
pub fn bar(fraction: f64, width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 10).len(), 5);
        assert_eq!(bar(2.0, 10).len(), 10);
        assert_eq!(bar(-1.0, 10).len(), 0);
    }

    #[test]
    fn times_formats() {
        assert_eq!(times(1.234), "1.23x");
    }
}
