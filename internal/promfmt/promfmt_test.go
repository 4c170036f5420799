package promfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEscapeLabelSpecExact(t *testing.T) {
	cases := map[string]string{
		"ccn0":       `"ccn0"`,
		`a\b`:        `"a\\b"`,
		`say "hi"`:   `"say \"hi\""`,
		"two\nlines": `"two\nlines"`,
		"tab\tstays": "\"tab\tstays\"", // %q would emit \t, which scrapers reject
		"utf8 µs ✓":  `"utf8 µs ✓"`,    // %q would emit \xNN / \uNNNN escapes
		"":           `""`,
	}
	for in, want := range cases {
		if got := EscapeLabel(in); got != want {
			t.Errorf("EscapeLabel(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestNameLegality(t *testing.T) {
	for _, ok := range []string{"ktau_perfmon_frames_total", "a:b", "_x9"} {
		if !ValidMetricName(ok) {
			t.Errorf("ValidMetricName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "9x", "has-dash", "has.dot", "sp ace"} {
		if ValidMetricName(bad) {
			t.Errorf("ValidMetricName(%q) = true", bad)
		}
	}
	if !ValidLabelName("node") || ValidLabelName("__reserved") || ValidLabelName("9x") || ValidLabelName("a:b") {
		t.Error("ValidLabelName verdicts wrong")
	}
}

func TestLintAcceptsCleanDocument(t *testing.T) {
	doc := "# HELP x_total Things counted.\n# TYPE x_total counter\n" +
		"x_total{node=\"ccn0\",msg=\"say \\\"hi\\\"\\n\"} 3\n" +
		"x_total{node=\"ccn1\"} 4\n" +
		"# HELP y_level Current level.\n# TYPE y_level gauge\ny_level 0.5\n"
	if v := Lint([]byte(doc)); len(v) != 0 {
		t.Fatalf("clean document rejected: %v", v)
	}
}

func TestLintCatchesDeviations(t *testing.T) {
	cases := []struct {
		doc  string
		want string
	}{
		{"x_total 1\n", "precedes its # TYPE"},
		{"# HELP x_total h\n# TYPE x_total counter\nx_total{l=\"a\"} 1\nx_total{l=\"a\"} 2\n", "duplicate series"},
		{"# HELP x x\n# TYPE x counter\nx 1\n", "does not end in _total"},
		{"# HELP x_total h\n# TYPE x_total counter\nx_total{l=\"a\\tb\"} 1\n", "undefined escape"},
		{"# HELP x_total h\n# TYPE x_total counter\nx_total{9l=\"a\"} 1\n", "illegal label name"},
		{"# HELP x_total h\n# TYPE x_total counter\nx_total nope\n", "unparsable sample value"},
		{"# HELP x_total h\n# TYPE x_total counter\nx_total 1", "does not end with a newline"},
		{"# HELP x_total h\n# TYPE x_total bogus\nx_total 1\n", "unknown TYPE"},
		{"# HELP has-dash h\n", "illegal metric name"},
	}
	for _, c := range cases {
		v := Lint([]byte(c.doc))
		found := false
		for _, msg := range v {
			if strings.Contains(msg, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("Lint(%q): want a violation containing %q, got %v", c.doc, c.want, v)
		}
	}
}

// FuzzLint: Lint never panics, whatever the bytes. Its seeds are the
// committed exports of both pipelines, which must lint clean.
func FuzzLint(f *testing.F) {
	for _, path := range []string{
		filepath.Join("..", "perfmon", "testdata", "export.prom"),
		filepath.Join("..", "tracepipe", "testdata", "crash.prom"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if v := Lint(data); len(v) != 0 {
			f.Fatalf("%s: committed export does not lint clean: %v", path, v)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		Lint(data)
	})
}
