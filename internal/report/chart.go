package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Chart renders a horizontal ASCII bar chart of one numeric series —
// a terminal stand-in for the paper's figures, so candle sweep can
// show the *shape* (who wins, where the crossover falls) without a
// plotting stack.
type Chart struct {
	Title  string
	Labels []string
	Values []float64
	// Width is the maximum bar width in characters (default 50).
	Width int
}

// NewChart builds a chart; labels and values must align.
func NewChart(title string) *Chart { return &Chart{Title: title} }

// Add appends one bar.
func (c *Chart) Add(label string, value float64) {
	c.Labels = append(c.Labels, label)
	c.Values = append(c.Values, value)
}

// String renders the chart.
func (c *Chart) String() string {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n", c.Title)
	if len(c.Values) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	maxV := 0.0
	labelW := 0
	for i, v := range c.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			v = 0
		}
		if v > maxV {
			maxV = v
		}
		if len(c.Labels[i]) > labelW {
			labelW = len(c.Labels[i])
		}
	}
	for i, v := range c.Values {
		bar := 0
		if maxV > 0 && v > 0 {
			bar = int(math.Round(v / maxV * float64(width)))
		}
		if v > 0 && bar == 0 {
			bar = 1 // visible trace for tiny nonzero values
		}
		fmt.Fprintf(&b, "%-*s |%-*s %s\n", labelW, c.Labels[i], width,
			strings.Repeat("#", bar), trimNum(v))
	}
	return b.String()
}

func trimNum(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// ChartFromTable extracts a bar chart from a table: labelCol provides
// the bar labels and valueCol the lengths. Cells that do not parse as
// numbers (e.g. "FAILED(OOM)") become zero-length bars labelled as-is.
func ChartFromTable(t *Table, labelCol, valueCol int) (*Chart, error) {
	if labelCol < 0 || labelCol >= len(t.Headers) || valueCol < 0 || valueCol >= len(t.Headers) {
		return nil, fmt.Errorf("report: chart columns %d/%d outside table %s (%d cols)",
			labelCol, valueCol, t.ID, len(t.Headers))
	}
	c := NewChart(fmt.Sprintf("%s: %s by %s", t.ID, t.Headers[valueCol], t.Headers[labelCol]))
	for _, row := range t.Rows {
		raw := strings.TrimSuffix(strings.TrimSuffix(row[valueCol], "%"), "x")
		v, err := strconv.ParseFloat(raw, 64)
		label := row[labelCol]
		if err != nil {
			label += " (" + row[valueCol] + ")"
			v = 0
		}
		c.Add(label, v)
	}
	return c, nil
}
