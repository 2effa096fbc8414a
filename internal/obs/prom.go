package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// This file renders the registry in the Prometheus text exposition
// format (version 0.0.4), so standard scrapers consume the same metrics
// /v1/metrics serves as JSON. Internal metric names use dots
// (engine.cache.hits); exposition sanitizes them to the Prometheus
// charset (engine_cache_hits). Histograms expose the full cumulative
// bucket layout, not just the JSON summary quantiles.

// promName sanitizes an internal metric name to the Prometheus name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelName sanitizes a label key: like promName but ':' is not
// allowed in label names.
func promLabelName(name string) string {
	return strings.ReplaceAll(promName(name), ":", "_")
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promFloat formats a sample value.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily is one metric family ready to render: a TYPE line followed
// by its sample lines, each line complete with labels.
type promFamily struct {
	name  string
	kind  string // counter, gauge, histogram
	lines []string
}

// labelPair renders `{key="value"}` or "" when key is empty.
func labelPair(key, value string) string {
	if key == "" {
		return ""
	}
	return "{" + labelSet(key, value, promLabelName, promEscape) + "}"
}

// labelSet renders `key="value"`. A vector registered under several
// comma-separated keys ("kind,op") carries its values the same way
// ("count,hit") and renders one pair per key.
func labelSet(key, value string, name, escape func(string) string) string {
	keys, vals := strings.Split(key, ","), strings.Split(value, ",")
	if len(keys) != len(vals) {
		keys, vals = []string{key}, []string{value}
	}
	pairs := make([]string, len(keys))
	for i := range keys {
		pairs[i] = fmt.Sprintf("%s=%q", name(keys[i]), escape(vals[i]))
	}
	return strings.Join(pairs, ",")
}

// histLines renders one histogram series (with an optional extra label)
// as cumulative _bucket/_sum/_count lines.
func histLines(name string, h *Histogram, labelKey, labelValue string) []string {
	bounds, counts := h.Buckets()
	lines := make([]string, 0, len(bounds)+3)
	extra := ""
	if labelKey != "" {
		extra = labelSet(labelKey, labelValue, promLabelName, promEscape) + ","
	}
	cum := int64(0)
	for i, bound := range bounds {
		cum += counts[i]
		lines = append(lines, fmt.Sprintf("%s_bucket{%sle=%q} %d", name, extra, promFloat(bound), cum))
	}
	cum += counts[len(bounds)]
	lines = append(lines, fmt.Sprintf("%s_bucket{%sle=\"+Inf\"} %d", name, extra, cum))
	suffix := ""
	if labelKey != "" {
		suffix = labelPair(labelKey, labelValue)
	}
	lines = append(lines,
		fmt.Sprintf("%s_sum%s %s", name, suffix, promFloat(h.Sum())),
		fmt.Sprintf("%s_count%s %d", name, suffix, cum))
	return lines
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format: families sorted by name, one # TYPE line per family, labeled
// vectors as one family with per-value sample lines, histograms with
// cumulative le buckets. Registered collectors run first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collect()
	r.mu.RLock()
	fams := make([]promFamily, 0,
		len(r.counters)+len(r.gauges)+len(r.hists)+
			len(r.counterVecs)+len(r.gaugeVecs)+len(r.histVecs))
	for name, c := range r.counters {
		n := promName(name)
		fams = append(fams, promFamily{n, "counter",
			[]string{fmt.Sprintf("%s %d", n, c.Value())}})
	}
	for name, g := range r.gauges {
		n := promName(name)
		fams = append(fams, promFamily{n, "gauge",
			[]string{fmt.Sprintf("%s %s", n, promFloat(g.Value()))}})
	}
	for name, h := range r.hists {
		n := promName(name)
		fams = append(fams, promFamily{n, "histogram", histLines(n, h, "", "")})
	}
	for name, cv := range r.counterVecs {
		n := promName(name)
		f := promFamily{name: n, kind: "counter"}
		for _, s := range cv.v.snapshot() {
			f.lines = append(f.lines,
				fmt.Sprintf("%s%s %d", n, labelPair(cv.v.label, s.value), s.metric.Value()))
		}
		fams = append(fams, f)
	}
	for name, gv := range r.gaugeVecs {
		n := promName(name)
		f := promFamily{name: n, kind: "gauge"}
		for _, s := range gv.v.snapshot() {
			f.lines = append(f.lines,
				fmt.Sprintf("%s%s %s", n, labelPair(gv.v.label, s.value), promFloat(s.metric.Value())))
		}
		fams = append(fams, f)
	}
	for name, hv := range r.histVecs {
		n := promName(name)
		f := promFamily{name: n, kind: "histogram"}
		for _, s := range hv.v.snapshot() {
			f.lines = append(f.lines, histLines(n, s.metric, hv.v.label, s.value)...)
		}
		fams = append(fams, f)
	}
	r.mu.RUnlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if len(f.lines) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, line := range f.lines {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// PromHandler returns an http.Handler serving WritePrometheus — the
// /metrics scrape endpoint.
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ValidateExposition checks a Prometheus text exposition payload: every
// line is a comment or a well-formed sample, no series (name + label
// set) appears twice, and no family declares # TYPE twice. It exists
// for the CI scrape smoke test and returns the first violation found.
func ValidateExposition(data []byte) error {
	seenSeries := make(map[string]int)
	seenType := make(map[string]int)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				if prev, dup := seenType[fields[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s (first at line %d)", lineNo, fields[2], prev)
				}
				seenType[fields[2]] = lineNo
			}
			continue
		}
		series, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, value)
		}
		if prev, dup := seenSeries[series]; dup {
			return fmt.Errorf("line %d: duplicate series %s (first at line %d)", lineNo, series, prev)
		}
		seenSeries[series] = lineNo
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(seenSeries) == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	return nil
}

// parseSampleLine splits one sample line into its series identity
// (name plus label set) and value, validating the name charset and
// label syntax.
func parseSampleLine(line string) (series, value string, err error) {
	name := line
	labels := ""
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", "", fmt.Errorf("malformed labels in %q", line)
		}
		name = line[:i]
		labels = line[i : j+1]
		rest = line[j+1:]
	} else if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		name = line[:sp]
		rest = line[sp:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", fmt.Errorf("want 'name value [timestamp]', got %q", line)
	}
	if !validPromName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name + labels, fields[0], nil
}

// validPromName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
