//! The figure/series vocabulary shared by the engine, the CLI `--json`
//! path, the committed `results/*.json` goldens, and `BENCH_sweep.json`.

use crate::error::SweepError;
use std::fmt;
use std::str::FromStr;

/// One labelled data series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "47 dest kbin").
    pub label: String,
    /// `(x, y)` points in sweep order.
    pub points: Vec<(f64, f64)>,
}

/// A reproduced figure: labelled series plus axis metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Paper artifact id, e.g. "fig14a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
}

impl Figure {
    /// Every distinct x value across the series, in first-seen order.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.contains(&x) {
                    xs.push(x);
                }
            }
        }
        xs
    }

    /// The `.dat` table of [`Self::write_plots`].
    fn gnuplot_dat(&self) -> String {
        let mut dat = String::from("# x");
        for s in &self.series {
            dat.push_str(&format!("  \"{}\"", s.label));
        }
        dat.push('\n');
        let mut xs = self.x_values();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("figure x values are never NaN"));
        for x in xs {
            dat.push_str(&format!("{x}"));
            for s in &self.series {
                match s.points.iter().find(|&&(px, _)| px == x) {
                    Some(&(_, y)) => dat.push_str(&format!(" {y}")),
                    None => dat.push_str(" ?"),
                }
            }
            dat.push('\n');
        }
        dat
    }

    /// The `.gp` script of [`Self::write_plots`].
    fn gnuplot_script(&self) -> String {
        let mut gp = format!(
            "set title \"{}\"\nset xlabel \"{}\"\nset ylabel \"{}\"\nset key left top\nset grid\n",
            self.title, self.x_label, self.y_label
        );
        gp.push_str(&format!(
            "set terminal pngcairo size 800,600\nset output \"{}.png\"\nset datafile missing \"?\"\nplot ",
            self.id
        ));
        let plots: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "\"{}.dat\" using 1:{} with linespoints title \"{}\"",
                    self.id,
                    i + 2,
                    s.label
                )
            })
            .collect();
        gp.push_str(&plots.join(", \\\n     "));
        gp.push('\n');
        gp
    }

    /// Writes the figure as gnuplot files, creating `dir` first:
    /// `<dir>/<id>.dat` holds a `# x "label"…` header and one row per x
    /// value (ascending, one column per series, `?` for a missing point);
    /// `<dir>/<id>.gp` is a pngcairo script plotting every series. Returns
    /// the two paths written.
    ///
    /// # Errors
    ///
    /// The first I/O failure, its message naming the path.
    pub fn write_plots(&self, dir: &str) -> std::io::Result<[String; 2]> {
        let annotate = |what: &str, path: &str, e: std::io::Error| {
            std::io::Error::new(e.kind(), format!("cannot {what} {path}: {e}"))
        };
        std::fs::create_dir_all(dir).map_err(|e| annotate("create", dir, e))?;
        let paths = [
            format!("{dir}/{}.dat", self.id),
            format!("{dir}/{}.gp", self.id),
        ];
        for (path, body) in paths
            .iter()
            .zip([self.gnuplot_dat(), self.gnuplot_script()])
        {
            std::fs::write(path, body).map_err(|e| annotate("write", path, e))?;
        }
        Ok(paths)
    }
}

/// Typed identifier of every figure the reproduction regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    /// Fig. 4: conventional vs smart NI (analytic).
    Fig4,
    /// Fig. 5: binomial vs linear tree counterexample (analytic).
    Fig5,
    /// Fig. 8: pipelined packet completions (analytic).
    Fig8,
    /// §3.3.2 buffer residency, FCFS vs FPFS (analytic).
    Buffers,
    /// Fig. 12(a): optimal k vs packets (analytic).
    Fig12a,
    /// Fig. 12(b): optimal k vs multicast set size (analytic).
    Fig12b,
    /// Fig. 13(a): k-binomial latency vs packets (simulated).
    Fig13a,
    /// Fig. 13(b): k-binomial latency vs set size (simulated).
    Fig13b,
    /// Fig. 14(a): binomial vs k-binomial vs packets (simulated).
    Fig14a,
    /// Fig. 14(b): binomial vs k-binomial vs set size (simulated).
    Fig14b,
    /// Extension: FPFS vs FCFS optimal-tree steps (analytic).
    Disciplines,
}

impl FigureId {
    /// Every figure, in the order the `figures` binary prints them.
    pub const ALL: [FigureId; 11] = [
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig8,
        FigureId::Buffers,
        FigureId::Fig12a,
        FigureId::Fig12b,
        FigureId::Fig13a,
        FigureId::Fig13b,
        FigureId::Fig14a,
        FigureId::Fig14b,
        FigureId::Disciplines,
    ];

    /// The artifact id used in filenames and the `id` field of the JSON
    /// schema.
    pub fn as_str(self) -> &'static str {
        match self {
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig8 => "fig8",
            FigureId::Buffers => "buffers",
            FigureId::Fig12a => "fig12a",
            FigureId::Fig12b => "fig12b",
            FigureId::Fig13a => "fig13a",
            FigureId::Fig13b => "fig13b",
            FigureId::Fig14a => "fig14a",
            FigureId::Fig14b => "fig14b",
            FigureId::Disciplines => "disciplines",
        }
    }

    /// True for figures that run the discrete-event simulator (and therefore
    /// profit from the parallel engine); false for analytic figures.
    pub fn simulated(self) -> bool {
        matches!(
            self,
            FigureId::Fig13a | FigureId::Fig13b | FigureId::Fig14a | FigureId::Fig14b
        )
    }
}

impl fmt::Display for FigureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FigureId {
    type Err = SweepError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FigureId::ALL
            .into_iter()
            .find(|id| id.as_str() == s)
            .ok_or_else(|| SweepError::UnknownFigure(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in FigureId::ALL {
            assert_eq!(id.as_str().parse::<FigureId>().unwrap(), id);
            assert_eq!(id.to_string(), id.as_str());
        }
        assert_eq!(
            "fig99".parse::<FigureId>(),
            Err(SweepError::UnknownFigure("fig99".into()))
        );
    }

    #[test]
    fn gnuplot_table_marks_missing_points() {
        let fig = Figure {
            id: "demo".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![(2.0, 20.0), (1.0, 10.0)],
                },
                Series {
                    label: "b".into(),
                    points: vec![(2.0, 0.5)],
                },
            ],
        };
        assert_eq!(fig.gnuplot_dat(), "# x  \"a\"  \"b\"\n1 10 ?\n2 20 0.5\n");
        let gp = fig.gnuplot_script();
        assert!(gp.contains("\"demo.dat\" using 1:2 with linespoints title \"a\", \\\n"));
        assert!(gp.ends_with("\"demo.dat\" using 1:3 with linespoints title \"b\"\n"));
    }

    #[test]
    fn simulated_split() {
        let sim: Vec<_> = FigureId::ALL
            .into_iter()
            .filter(|f| f.simulated())
            .collect();
        assert_eq!(
            sim,
            vec![
                FigureId::Fig13a,
                FigureId::Fig13b,
                FigureId::Fig14a,
                FigureId::Fig14b
            ]
        );
    }
}
