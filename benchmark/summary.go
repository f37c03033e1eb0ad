package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func jsonUnmarshalStrict(text string, v any) error {
	dec := json.NewDecoder(bytes.NewReader([]byte(text)))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// metricSummary is one metric of one workload over a set of runs.
type metricSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func (m metricSummary) spread() float64 { return iqrShare(m.Values) }

type workloadSummary struct {
	Name string `json:"name"`
	// Seeds lists the runs' seeds in ascending order; every metric's
	// Values are in the same order.
	Seeds       []int64         `json:"seeds"`
	Runs        int             `json:"runs"`
	Attempted   int             `json:"attempted"`
	Failed      int             `json:"failed"`
	FailedShare float64         `json:"failed_share"`
	Correct     bool            `json:"correct"`
	Metrics     []metricSummary `json:"metrics"`
}

func (s *summary) workload(name string) *workloadSummary {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

func (w workloadSummary) metric(name string) *metricSummary {
	for i := range w.Metrics {
		if w.Metrics[i].Name == name {
			return &w.Metrics[i]
		}
	}
	return nil
}

// summary is a set of runs reduced to medians and quartiles. Claim is
// last and always null: this benchmark defines the measurement and
// claims no gain.
type summary struct {
	Environment environment       `json:"environment"`
	Workloads   []workloadSummary `json:"workloads"`
	Claim       *string           `json:"claim"`
}

// summarise groups results by workload (in the order of the workloads
// table) and reduces each metric over the runs.
func summarise(results []*result) *summary {
	sum := &summary{}
	if len(results) > 0 {
		sum.Environment = results[0].Environment
	}
	results = append([]*result(nil), results...)
	sort.SliceStable(results, func(i, j int) bool { return results[i].Environment.Seed < results[j].Environment.Seed })
	for _, w := range workloads {
		ws := workloadSummary{Name: w.Name, Correct: true}
		values := map[string][]float64{}
		units := map[string]string{}
		for _, r := range results {
			if r.Workload != w.Name {
				continue
			}
			ws.Runs++
			ws.Seeds = append(ws.Seeds, r.Environment.Seed)
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
			ws.Correct = ws.Correct && r.Correct
			for name, v := range r.Metrics {
				values[name] = append(values[name], v.Value)
				units[name] = v.Unit
			}
		}
		if ws.Runs == 0 {
			continue
		}
		ws.FailedShare = float64(ws.Failed) / float64(ws.Attempted)
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })
		for _, name := range names {
			q1, q3 := quartiles(values[name])
			ws.Metrics = append(ws.Metrics, metricSummary{
				Name: name, Unit: units[name], Median: median(values[name]),
				Q1: q1, Q3: q3, N: len(values[name]), Values: values[name],
			})
		}
		sum.Workloads = append(sum.Workloads, ws)
	}
	return sum
}

// metricOrder is a metric's position in the spec tables.
func metricOrder(name string) int {
	for i, m := range endToEnd {
		if m.Name == name {
			return i
		}
	}
	for i, m := range perLayer {
		if m.Name == name {
			return len(endToEnd) + i
		}
	}
	return len(endToEnd) + len(perLayer)
}

func (s *summary) allCorrect() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (s *summary) print(w io.Writer) {
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, "\n%s: %d run(s), %d attempted, %d failed (failed_share %.6f), checks %s\n",
			ws.Name, ws.Runs, ws.Attempted, ws.Failed, ws.FailedShare, okString(ws.Correct))
		fmt.Fprintf(w, "  %-36s %-8s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, m := range ws.Metrics {
			fmt.Fprintf(w, "  %-36s %-8s %14.6g %14.6g %14.6g %4d\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
		}
	}
}

func okString(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}

func (s *summary) write(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// loadResults reads the end-to-end result files of an -out directory.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.e2e.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no *.e2e.json result files", dir)
	}
	sort.Strings(paths)
	var out []*result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// minRunsToJudge is the fewest runs per side a verdict may rest on: with
// fewer, the spread between a side's own runs is unknown.
const minRunsToJudge = 3

// verdict compares one metric of one workload between two sets of runs.
//
// Two sets made in pairs (suite -against: the same seeds on both sides,
// each pair run back to back) are compared pair by pair: the change is
// the median of the pairs' ratios, the spread the distance between the
// ratios' quartiles, and both are held to the metric's paired bound,
// which is the issue's. The host's drift is the same for both halves of
// a pair and cancels. Two unrelated sets are compared by their medians
// and held to the contract's bound, each side's own spread being the
// distance between its quartiles as a share of its median.
//
// A metric whose spread is wider than the bound, or that has fewer than
// minRunsToJudge runs on either side, cannot be judged: it is
// unresolved, not unchanged.
func verdict(m metric, a, b metricSummary, paired bool) (change, spread float64, v string) {
	bound := m.Bound
	if paired {
		bound = m.Paired
		ratios := make([]float64, len(a.Values))
		for i := range ratios {
			ratios[i] = b.Values[i] / a.Values[i]
		}
		change, spread = median(ratios)-1, iqrShare(ratios)
	} else {
		change, spread = (b.Median-a.Median)/a.Median, math.Max(a.spread(), b.spread())
	}
	worsening := change
	if m.Better == "higher" {
		worsening = -change
	}
	switch {
	case a.N < minRunsToJudge || b.N < minRunsToJudge || spread > bound:
		v = "unresolved"
	case worsening > bound:
		v = "worse"
	case worsening < -bound:
		v = "better"
	default:
		v = "unchanged"
	}
	return change, spread, v
}

func sameSeeds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareDirs prints one row per workload and end-to-end metric with
// both sides' medians and quartiles, the bound, the change, the spread
// the verdict rests on, and the verdict. A metric the workload borrows
// from its small second phase (spec.go, builtFor) is printed with its
// verdict in brackets and does not count. It fails on any "worse", on a
// workload or metric present on one side only, and on any rise in the
// share of failed operations.
func compareDirs(w io.Writer, dirA, dirB string) error {
	ra, err := loadResults(dirA)
	if err != nil {
		return err
	}
	rb, err := loadResults(dirB)
	if err != nil {
		return err
	}
	sa, sb := summarise(ra), summarise(rb)
	fmt.Fprintf(w, "%-13s %-20s %-5s %12s %25s %12s %25s %-8s %6s %8s %7s  %s\n",
		"workload", "metric", "unit", "a median", "a quartiles", "b median", "b quartiles", "compared", "bound", "change", "spread", "verdict")
	bad := 0
	counts := map[string]int{}
	for i := range workloads {
		spec := &workloads[i]
		wa, wb := sa.workload(spec.Name), sb.workload(spec.Name)
		switch {
		case wa == nil && wb == nil:
			continue
		case wa == nil || wb == nil:
			missing := dirA
			if wb == nil {
				missing = dirB
			}
			fmt.Fprintf(w, "%-13s missing from %s\n", spec.Name, missing)
			bad++
			continue
		}
		paired, how := sameSeeds(wa.Seeds, wb.Seeds), "medians"
		if paired {
			how = "pairs"
		}
		for _, m := range endToEnd {
			ma, mb := wa.metric(m.Name), wb.metric(m.Name)
			if ma == nil || mb == nil || ma.N != wa.Runs || mb.N != wb.Runs {
				fmt.Fprintf(w, "%-13s %-20s missing on one side or in some runs\n", spec.Name, m.Name)
				bad++
				continue
			}
			change, spread, v := verdict(m, *ma, *mb, paired)
			if spec.builtFor(m.Name) {
				counts[v]++
				if v == "worse" {
					bad++
				}
			} else {
				v = "[" + v + ": borrowed, not judged]"
			}
			bound := m.Bound
			if paired {
				bound = m.Paired
			}
			fmt.Fprintf(w, "%-13s %-20s %-5s %12.5g %25s %12.5g %25s %-8s %5.0f%% %+7.1f%% %6.1f%%  %s\n",
				spec.Name, m.Name, m.Unit, ma.Median, fmt.Sprintf("%.5g..%.5g (n=%d)", ma.Q1, ma.Q3, ma.N),
				mb.Median, fmt.Sprintf("%.5g..%.5g (n=%d)", mb.Q1, mb.Q3, mb.N),
				how, 100*bound, 100*change, 100*spread, v)
		}
		v := "unchanged"
		if wb.FailedShare > wa.FailedShare {
			v = "worse"
			bad++
		}
		counts[v]++
		fmt.Fprintf(w, "%-13s %-20s %-5s %12.6f %25s %12.6f %25s %-8s %6s %8s %7s  %s\n",
			spec.Name, "failed_share", "ratio", wa.FailedShare, fmt.Sprintf("%d of %d", wa.Failed, wa.Attempted),
			wb.FailedShare, fmt.Sprintf("%d of %d", wb.Failed, wb.Attempted), "", "+0", "", "", v)
	}
	fmt.Fprintf(w, "judged rows: %d unchanged, %d better, %d worse, %d unresolved\n",
		counts["unchanged"], counts["better"], counts["worse"], counts["unresolved"])
	if bad > 0 {
		return errors.New("the second set of runs is worse than the first, or the sets do not match")
	}
	return nil
}
