package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the value to serve with the output of
// WritePrometheus (Prometheus text exposition format, version 0.0.4).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus encodes every family in the registry in Prometheus
// text format. Families appear sorted by name and series sorted by
// label signature, so output is deterministic for a fixed state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		b.Reset()
		encodeFamily(&b, f)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func encodeFamily(b *strings.Builder, f *family) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	if f.collect != nil {
		samples := f.collect()
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].LabelValues, seriesSep) <
				strings.Join(samples[j].LabelValues, seriesSep)
		})
		for _, s := range samples {
			writeSample(b, f.name, f.labelNames, s.LabelValues, "", "", s.Value)
		}
		return
	}

	f.mu.RLock()
	keys := append([]string(nil), f.keys...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.RUnlock()
	// Sort series with the keys for deterministic output.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })

	for _, i := range idx {
		var values []string
		if keys[i] != "" || len(f.labelNames) > 0 {
			values = strings.Split(keys[i], seriesSep)
		}
		switch m := series[i].(type) {
		case *Counter:
			writeSample(b, f.name, f.labelNames, values, "", "", float64(m.Value()))
		case *Histogram:
			s := m.Snapshot()
			var cum uint64
			for bi, bound := range s.Bounds {
				cum += s.Counts[bi]
				writeSample(b, f.name+"_bucket", f.labelNames, values,
					"le", formatBound(bound), float64(cum))
			}
			writeSample(b, f.name+"_bucket", f.labelNames, values, "le", "+Inf", float64(s.Count))
			writeSample(b, f.name+"_sum", f.labelNames, values, "", "", s.Sum)
			writeSample(b, f.name+"_count", f.labelNames, values, "", "", float64(s.Count))
		}
	}
}

// writeSample emits one line: name{labels,extraName="extraValue"} value.
func writeSample(b *strings.Builder, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	b.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		b.WriteByte('{')
		sep := false
		for i, ln := range labelNames {
			if sep {
				b.WriteByte(',')
			}
			sep = true
			lv := ""
			if i < len(labelValues) {
				lv = labelValues[i]
			}
			b.WriteString(ln)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(lv))
			b.WriteByte('"')
		}
		if extraName != "" {
			if sep {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatBound renders a histogram "le" bound the way Prometheus
// clients do: shortest round-trip float.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
