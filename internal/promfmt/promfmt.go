// Package promfmt implements the details of the Prometheus text exposition
// format (version 0.0.4) that the exporters in perfmon and tracepipe must
// get exactly right for real scrapers to parse their output unmodified:
// label-value escaping (exactly \\, \" and \n — nothing else; Go's %q
// produces \t and \xNN escapes the format does not define), HELP-text
// escaping (\\ and \n), and metric/label name legality. Lint is a strict
// validator for a whole exposition document; the exporters' tests run it
// over real output so any format drift fails loudly.
package promfmt

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// EscapeLabel renders a label value as the exposition format requires:
// surrounding double quotes with backslash, double-quote and line-feed
// escaped — and only those. Every other byte passes through verbatim (the
// format is UTF-8 transparent).
func EscapeLabel(v string) string {
	var b strings.Builder
	b.Grow(len(v) + 2)
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// ValidMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]* and is
// not reserved (double-underscore prefixes belong to Prometheus itself).
func ValidLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

var metricTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// Lint strictly validates one exposition document and returns one message
// per deviation (empty = parses clean). Beyond raw syntax it enforces the
// conventions the repo's exporters promise: every sample's family is
// declared with # HELP and # TYPE before its first sample, no duplicate
// series, counters end in _total, and the document ends with a newline.
func Lint(data []byte) []string {
	var v []string
	if len(data) == 0 {
		return []string{"empty exposition document"}
	}
	if data[len(data)-1] != '\n' {
		v = append(v, "document does not end with a newline")
	}
	typed := map[string]string{} // family -> declared type
	helped := map[string]bool{}  // family -> HELP seen
	sampled := map[string]bool{} // family -> first sample seen
	series := map[string]bool{}  // full series (name+labels) seen
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, rest, ok := strings.Cut(strings.TrimPrefix(line, "# "), " ")
			if !ok || (kind != "HELP" && kind != "TYPE") {
				continue // free-form comment, legal
			}
			name, text, _ := strings.Cut(rest, " ")
			if !ValidMetricName(name) {
				v = append(v, fmt.Sprintf("line %d: illegal metric name %q in # %s", lineNo, name, kind))
				continue
			}
			switch kind {
			case "HELP":
				if helped[name] {
					v = append(v, fmt.Sprintf("line %d: duplicate # HELP for %s", lineNo, name))
				}
				helped[name] = true
				if i := strings.IndexByte(text, '\\'); i >= 0 {
					if !strings.HasPrefix(text[i:], `\\`) && !strings.HasPrefix(text[i:], `\n`) {
						v = append(v, fmt.Sprintf("line %d: HELP text for %s uses an undefined escape", lineNo, name))
					}
				}
			case "TYPE":
				if !metricTypes[text] {
					v = append(v, fmt.Sprintf("line %d: unknown TYPE %q for %s", lineNo, text, name))
				}
				if _, dup := typed[name]; dup {
					v = append(v, fmt.Sprintf("line %d: duplicate # TYPE for %s", lineNo, name))
				}
				if sampled[name] {
					v = append(v, fmt.Sprintf("line %d: # TYPE for %s appears after its first sample", lineNo, name))
				}
				typed[name] = text
			}
			continue
		}
		name, labels, value, errs := parseSample(line, lineNo)
		v = append(v, errs...)
		if name == "" {
			continue
		}
		if !ValidMetricName(name) {
			v = append(v, fmt.Sprintf("line %d: illegal metric name %q", lineNo, name))
		}
		typ, ok := typed[name]
		if !ok {
			v = append(v, fmt.Sprintf("line %d: sample of %s precedes its # TYPE declaration", lineNo, name))
		}
		if !helped[name] {
			v = append(v, fmt.Sprintf("line %d: sample of %s has no # HELP declaration", lineNo, name))
			helped[name] = true // report once per family
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			v = append(v, fmt.Sprintf("line %d: counter %s does not end in _total", lineNo, name))
		}
		sampled[name] = true
		key := name + "{" + labels + "}"
		if series[key] {
			v = append(v, fmt.Sprintf("line %d: duplicate series %s", lineNo, key))
		}
		series[key] = true
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			switch value {
			case "+Inf", "-Inf", "NaN":
			default:
				v = append(v, fmt.Sprintf("line %d: unparsable sample value %q", lineNo, value))
			}
		}
	}
	if err := sc.Err(); err != nil {
		v = append(v, "scan error: "+err.Error())
	}
	return v
}

// parseSample splits `name{l="v",...} value` (labels optional) and
// validates label syntax and escaping. It returns the canonicalised label
// list so Lint can detect duplicate series.
func parseSample(line string, lineNo int) (name, labels, value string, v []string) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		rest = rest[i+1:]
		end := -1
		inQuote := false
		for j := 0; j < len(rest); j++ {
			switch rest[j] {
			case '\\':
				if inQuote {
					j++ // skip escaped byte
				}
			case '"':
				inQuote = !inQuote
			case '}':
				if !inQuote {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", "", []string{fmt.Sprintf("line %d: unterminated label set: %s", lineNo, line)}
		}
		labels = rest[:end]
		rest = rest[end+1:]
		for _, pair := range splitLabels(labels) {
			ln, lv, ok := strings.Cut(pair, "=")
			if !ok {
				v = append(v, fmt.Sprintf("line %d: malformed label pair %q", lineNo, pair))
				continue
			}
			if !ValidLabelName(ln) {
				v = append(v, fmt.Sprintf("line %d: illegal label name %q", lineNo, ln))
			}
			if len(lv) < 2 || lv[0] != '"' || lv[len(lv)-1] != '"' {
				v = append(v, fmt.Sprintf("line %d: label value %s is not quoted", lineNo, lv))
				continue
			}
			body := lv[1 : len(lv)-1]
			for j := 0; j < len(body); j++ {
				switch body[j] {
				case '\\':
					if j+1 >= len(body) {
						v = append(v, fmt.Sprintf("line %d: label %s value ends mid-escape", lineNo, ln))
					} else if c := body[j+1]; c != '\\' && c != '"' && c != 'n' {
						v = append(v, fmt.Sprintf("line %d: label %s value uses undefined escape \\%c", lineNo, ln, c))
					}
					j++
				case '"':
					v = append(v, fmt.Sprintf("line %d: label %s value holds an unescaped quote", lineNo, ln))
				case '\n':
					v = append(v, fmt.Sprintf("line %d: label %s value holds a raw newline", lineNo, ln))
				}
			}
		}
	} else {
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			return "", "", "", []string{fmt.Sprintf("line %d: no sample value: %s", lineNo, line)}
		}
		name = rest[:i]
		rest = rest[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return name, labels, "", append(v,
			fmt.Sprintf("line %d: want `value [timestamp]` after series, got %q", lineNo, strings.TrimSpace(rest)))
	}
	return name, labels, fields[0], v
}

// splitLabels splits a label body on commas that sit outside quotes.
func splitLabels(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
