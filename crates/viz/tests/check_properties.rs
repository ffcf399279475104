//! Property tests on the in-tree `mcds-check` engine: rendering never
//! panics and always yields well-formed SVG on arbitrary instances.

use mcds_check::gen::{f64s, usizes, vecs};
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_geom::Point;
use mcds_udg::Udg;
use mcds_viz::chart::{LineChart, Series};
use mcds_viz::{render_udg, UdgStyle};

#[test]
fn udg_render_is_well_formed() {
    // Up to 59 points on the 1/100 lattice of [-5, 5]², each with a coin
    // flip for the dominator role.
    Property::new("udg_render_is_well_formed").cases(48).run(
        &(
            vecs((usizes(0..=1000), usizes(0..=1000)), 0..=59),
            vecs(usizes(0..=1), 60..=60),
        ),
        |(ticks, dom_bits)| {
            let coord = |t: usize| (t as f64 - 500.0) / 100.0;
            let pts: Vec<Point> = ticks
                .iter()
                .map(|&(x, y)| Point::new(coord(x), coord(y)))
                .collect();
            let udg = Udg::build(pts);
            let dominators: Vec<usize> = (0..udg.len()).filter(|&v| dom_bits[v] == 1).collect();
            let style = UdgStyle {
                dominators,
                ..UdgStyle::default()
            };
            let svg = render_udg(&udg, &style);
            prop_assert!(svg.starts_with("<svg"));
            prop_assert!(svg.trim_end().ends_with("</svg>"));
            // One circle per node.
            prop_assert_eq!(svg.matches("<circle").count(), udg.len());
            // Balanced: no unclosed elements (all are self-closing here).
            prop_assert_eq!(
                svg.matches("/>").count() + svg.matches("</svg>").count(),
                svg.matches('<').count() - svg.matches("<svg").count() + 1
                    - svg.matches("</svg>").count()
            );
            TestResult::Pass
        },
    );
}

#[test]
fn chart_render_is_well_formed() {
    Property::new("chart_render_is_well_formed").cases(48).run(
        &vecs(
            vecs((f64s(-100.0..=100.0), f64s(-100.0..=100.0)), 1..=19),
            1..=4,
        ),
        |series_data| {
            let mut chart = LineChart::new("fuzz");
            chart.axes("x", "y");
            for (i, pts) in series_data.iter().enumerate() {
                chart.series(Series::new(&format!("s{i}"), "#123456", pts.clone()));
            }
            let svg = chart.render();
            prop_assert!(svg.starts_with("<svg"));
            prop_assert_eq!(svg.matches("<polyline").count(), series_data.len());
            // All plotted coordinates stay inside the canvas.
            for cap in svg.split("points=\"").skip(1) {
                let coords = cap.split('"').next().unwrap();
                for pair in coords.split_whitespace() {
                    let mut it = pair.split(',');
                    let x: f64 = it.next().unwrap().parse().unwrap();
                    let y: f64 = it.next().unwrap().parse().unwrap();
                    prop_assert!((0.0..=720.0).contains(&x), "x {} out of canvas", x);
                    prop_assert!((0.0..=480.0).contains(&y), "y {} out of canvas", y);
                }
            }
            TestResult::Pass
        },
    );
}
