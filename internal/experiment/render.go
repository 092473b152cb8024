// Rendering of registry entries as aligned text, CSV or markdown.

package experiment

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"alertmanet/internal/analysis"
)

// outputFormat is one output format: the extension of the file it is
// written to, its series renderer, and the layout of a Text entry's title
// and body (the heading each series renderer prints, fenced in markdown).
type outputFormat struct {
	ext    string
	series func(w io.Writer, title string, series []analysis.Series)
	text   string
}

func formatNamed(name string) (outputFormat, bool) {
	switch name {
	case "text":
		return outputFormat{".txt", RenderSeries, "== %s ==\n%s"}, true
	case "csv":
		return outputFormat{".csv", RenderCSV, "# %s\n%s"}, true
	case "md":
		return outputFormat{".md", RenderMarkdown, "## %s\n\n```\n%s```\n"}, true
	}
	return outputFormat{}, false
}

// FormatExt returns the file extension of an output format ("text", "csv"
// or "md"), and false for any other format.
func FormatExt(format string) (string, bool) {
	f, ok := formatNamed(format)
	return f.ext, ok
}

// Output executes the entry through r at the given seed count and renders
// it in the given format.
func (f Figure) Output(format string, r Runner, seeds int) ([]byte, error) {
	fm, ok := formatNamed(format)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown output format %q", format)
	}
	var b bytes.Buffer
	if f.Text != nil {
		text, err := f.Text(r, seeds)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, fm.text, f.Title, text)
		return b.Bytes(), nil
	}
	series, err := f.Render(r, seeds)
	if err != nil {
		return nil, err
	}
	fm.series(&b, f.Title, series)
	return b.Bytes(), nil
}

// RenderSeries prints labeled series as an aligned table: one row per x
// value, one column per series. Series whose x grids differ are printed
// back to back; single-point series print as label/value pairs.
func RenderSeries(w io.Writer, title string, series []analysis.Series) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(series) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	allSingle := true
	sameGrid := true
	for _, s := range series {
		if len(s.X) != 1 {
			allSingle = false
		}
		if len(s.X) != len(series[0].X) {
			sameGrid = false
		} else {
			for i := range s.X {
				//lint:allowfloatcompare axis values are copied sweep points, never recomputed; identity is exact
				if s.X[i] != series[0].X[i] {
					sameGrid = false
					break
				}
			}
		}
	}
	switch {
	case allSingle:
		for _, s := range series {
			fmt.Fprintf(w, "  %-32s %12.4f\n", s.Label, s.Y[0])
		}
	case sameGrid:
		fmt.Fprintf(w, "  %10s", "x")
		for _, s := range series {
			fmt.Fprintf(w, " %24s", truncate(s.Label, 24))
		}
		fmt.Fprintln(w)
		for i := range series[0].X {
			fmt.Fprintf(w, "  %10.2f", series[0].X[i])
			for _, s := range series {
				if s.Err != nil && i < len(s.Err) && s.Err[i] > 0 {
					fmt.Fprintf(w, " %24s",
						fmt.Sprintf("%.4f±%.4f", s.Y[i], s.Err[i]))
				} else {
					fmt.Fprintf(w, " %24.4f", s.Y[i])
				}
			}
			fmt.Fprintln(w)
		}
	default:
		for _, s := range series {
			fmt.Fprintf(w, "  -- %s --\n", s.Label)
			for i := range s.X {
				fmt.Fprintf(w, "    %10.2f %12.4f\n", s.X[i], s.Y[i])
			}
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// RenderCSV prints series as CSV: a comment line with the title, a header
// row (x plus one column per series label), then one row per x value.
// Series with differing grids are emitted as separate blocks.
func RenderCSV(w io.Writer, title string, series []analysis.Series) {
	fmt.Fprintf(w, "# %s\n", title)
	if len(series) == 0 {
		return
	}
	sameGrid := true
	for _, s := range series {
		if len(s.X) != len(series[0].X) {
			sameGrid = false
			break
		}
		for i := range s.X {
			//lint:allowfloatcompare axis values are copied sweep points, never recomputed; identity is exact
			if s.X[i] != series[0].X[i] {
				sameGrid = false
				break
			}
		}
	}
	if !sameGrid {
		for _, s := range series {
			fmt.Fprintf(w, "# series: %s\nx,y\n", csvEscape(s.Label))
			for i := range s.X {
				fmt.Fprintf(w, "%g,%g\n", s.X[i], s.Y[i])
			}
		}
		return
	}
	withErr := false
	for _, s := range series {
		if s.Err != nil {
			withErr = true
			break
		}
	}
	fmt.Fprint(w, "x")
	for _, s := range series {
		fmt.Fprintf(w, ",%s", csvEscape(s.Label))
		if withErr {
			fmt.Fprintf(w, ",%s", csvEscape(s.Label+" ci95"))
		}
	}
	fmt.Fprintln(w)
	for i := range series[0].X {
		fmt.Fprintf(w, "%g", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(w, ",%g", s.Y[i])
			if withErr {
				e := 0.0
				if s.Err != nil && i < len(s.Err) {
					e = s.Err[i]
				}
				fmt.Fprintf(w, ",%g", e)
			}
		}
		fmt.Fprintln(w)
	}
}

// RenderMarkdown prints a set of same-grid series as a markdown table under
// a level-two heading.
func RenderMarkdown(w io.Writer, title string, series []analysis.Series) {
	fmt.Fprintf(w, "## %s\n\n", title)
	if len(series) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	fmt.Fprint(w, "| x |")
	for _, s := range series {
		fmt.Fprintf(w, " %s |", strings.ReplaceAll(s.Label, "|", "\\|"))
	}
	fmt.Fprint(w, "\n|---|")
	for range series {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for i := range series[0].X {
		fmt.Fprintf(w, "| %g |", series[0].X[i])
		for _, s := range series {
			if i >= len(s.Y) {
				fmt.Fprint(w, " |")
				continue
			}
			if s.Err != nil && i < len(s.Err) && s.Err[i] > 0 {
				fmt.Fprintf(w, " %.4f ± %.4f |", s.Y[i], s.Err[i])
			} else {
				fmt.Fprintf(w, " %.4f |", s.Y[i])
			}
		}
		fmt.Fprintln(w)
	}
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}
