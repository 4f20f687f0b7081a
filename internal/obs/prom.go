package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the Prometheus text-exposition side of the registry: a
// deterministic encoder (WriteExposition) used by both the /metrics
// endpoint and the -metrics file dump, and a small validating parser
// (ParseExposition) used by tests and the CI smoke check so the
// encoder's output is machine-verified without external dependencies.

// promName sanitises a registry name into the Prometheus metric-name
// charset [a-zA-Z0-9_:]: dots (the registry's namespace separator) and
// every other invalid byte become underscores; a leading digit gains an
// underscore prefix.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text per the exposition format: backslash and
// newline (double quotes are legal in HELP).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// promType maps a registry kind to its exposition TYPE.
func promType(kind string) string {
	switch kind {
	case KindCounter:
		return "counter"
	case KindFunc:
		return "gauge"
	case KindHist:
		return "histogram"
	}
	return "untyped"
}

// promFamily is one exposition family: every series sharing a sanitised
// name. Mixed kinds under one sanitised name (possible when two raw
// names collide after sanitisation) degrade the family to untyped.
type promFamily struct {
	name    string // sanitised
	rawName string // first raw name seen, for HELP lookup
	typ     string
	series  []*series
}

// WriteExposition writes the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with optional
// # HELP and a # TYPE line, series within a family sorted by label
// suffix, histograms expanded into cumulative _bucket/_sum/_count.
// The output of a quiesced registry is deterministic byte-for-byte.
func (r *Registry) WriteExposition(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := r.sortedSeries()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	byName := make(map[string]*promFamily)
	var order []string
	for i := range all {
		s := &all[i]
		name := promName(s.key.name)
		f := byName[name]
		if f == nil {
			f = &promFamily{name: name, rawName: s.key.name, typ: promType(s.key.kind)}
			byName[name] = f
			order = append(order, name)
		} else if f.typ != promType(s.key.kind) {
			f.typ = "untyped"
		}
		f.series = append(f.series, s)
	}
	sort.Strings(order)

	bw := bufio.NewWriter(w)
	for _, name := range order {
		f := byName[name]
		if h := help[f.rawName]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(h))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch s.key.kind {
			case KindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.key.suffix, s.c.Value())
			case KindFunc:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.key.suffix, s.fn())
			case KindHist:
				writeHistSeries(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

// writeHistSeries expands one histogram series into cumulative buckets
// plus _sum and _count, merging the le label into any existing suffix.
func writeHistSeries(w io.Writer, name string, s *series) {
	h := s.h
	var cum int64
	for i, b := range h.bounds {
		cum += h.BucketCount(i)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, histSuffix(s, strconv.FormatInt(b, 10)), cum)
	}
	cum += h.BucketCount(len(h.bounds))
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, histSuffix(s, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, s.key.suffix, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.key.suffix, h.Count())
}

// histSuffix renders a histogram series' label suffix with le appended.
func histSuffix(s *series, le string) string {
	if s.key.suffix == "" {
		return `{le="` + le + `"}`
	}
	return s.key.suffix[:len(s.key.suffix)-1] + `,le="` + le + `"}`
}

// ExpositionStats summarises a parsed exposition document.
type ExpositionStats struct {
	Families int
	Series   int
}

// ParseExposition validates Prometheus text-exposition input: metric
// and label name syntax, label-value escaping, numeric sample values,
// TYPE correctness, family contiguity (all samples of a family follow
// its TYPE line before the next family starts) and duplicate series.
// It returns basic counts so callers can assert non-emptiness.
func ParseExposition(r io.Reader) (ExpositionStats, error) {
	var st ExpositionStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typed := make(map[string]string) // family -> type
	seen := make(map[string]bool)    // full series key
	closed := make(map[string]bool)  // families whose block ended
	cur := ""                        // family of the current block
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validMetricName(name) {
				return st, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return st, fmt.Errorf("line %d: TYPE needs a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return st, fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := typed[name]; dup {
					return st, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				if closed[name] {
					return st, fmt.Errorf("line %d: family %q reopened", lineNo, name)
				}
				typed[name] = fields[3]
				if cur != "" && cur != name {
					closed[cur] = true
				}
				cur = name
				st.Families++
			}
			continue
		}
		name, labels, rest, err := parseSampleLine(line)
		if err != nil {
			return st, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := sampleFamily(name, typed)
		if fam != cur {
			if cur != "" {
				closed[cur] = true
			}
			if closed[fam] {
				return st, fmt.Errorf("line %d: family %q not contiguous", lineNo, fam)
			}
			cur = fam
			if _, ok := typed[fam]; !ok {
				st.Families++ // untyped family introduced by a bare sample
			}
		}
		key := name + labels
		if seen[key] {
			return st, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		st.Series++
		val := rest
		if i := strings.IndexByte(rest, ' '); i >= 0 { // optional timestamp
			val = rest[:i]
			if _, err := strconv.ParseInt(strings.TrimSpace(rest[i+1:]), 10, 64); err != nil {
				return st, fmt.Errorf("line %d: bad timestamp %q", lineNo, rest[i+1:])
			}
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return st, fmt.Errorf("line %d: bad value %q", lineNo, val)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, nil
}

// sampleFamily maps a sample name to its family, folding histogram and
// summary suffixes back onto a declared family name.
func sampleFamily(name string, typed map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t := typed[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

// parseSampleLine splits "name{labels} value [ts]" validating name and
// label syntax. It returns the name, the raw label suffix (canonical
// form, "" when absent) and the remainder after the series.
func parseSampleLine(line string) (name, labels, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if i < len(line) && line[i] == '{' {
		j, err := scanLabels(line, i)
		if err != nil {
			return "", "", "", err
		}
		labels = line[i:j]
		i = j
	}
	if i >= len(line) || line[i] != ' ' {
		return "", "", "", fmt.Errorf("missing value after %q", name)
	}
	return name, labels, line[i+1:], nil
}

// scanLabels validates the {k="v",...} block starting at open; it
// returns the index just past the closing brace.
func scanLabels(line string, open int) (int, error) {
	i := open + 1
	for {
		if i < len(line) && line[i] == '}' { // {} and trailing comma
			return i + 1, nil
		}
		start := i
		for i < len(line) && line[i] != '=' {
			i++
		}
		if i >= len(line) || !validLabelName(line[start:i]) {
			return 0, fmt.Errorf("invalid label name %q", line[start:min(i, len(line))])
		}
		i++ // '='
		if i >= len(line) || line[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted")
		}
		i++
		for i < len(line) && line[i] != '"' {
			if line[i] == '\\' {
				if i+1 >= len(line) {
					return 0, fmt.Errorf("dangling escape in label value")
				}
				switch line[i+1] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("bad escape \\%c in label value", line[i+1])
				}
				i++
			}
			i++
		}
		if i >= len(line) {
			return 0, fmt.Errorf("unterminated label value")
		}
		i++ // closing quote
		if i < len(line) && line[i] == ',' {
			i++
			continue
		}
		if i < len(line) && line[i] == '}' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("expected , or } in label block")
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
