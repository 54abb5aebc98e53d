package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"worksteal/internal/lint"
)

// The CLI matrix (exit codes, output formats, baselines, -unused-ignores)
// runs as table cases over the one lint.Tool engine: the whole suite, and
// the race detector alone via -only abprace.

// seededCase is a fixture that yields exactly one finding under a given
// analyzer selection, with the substrings every rendering must carry.
type seededCase struct {
	name     string
	only     []string // flags selecting the analyzers; nil runs the suite
	dir      string
	analyzer string
	file     string
	want     []string
}

var seededCases = []seededCase{
	// The fixture reintroduces a discarded PushBottom result; the full
	// suite reports exactly one mustcheck finding there.
	{
		name: "suite", dir: "../../internal/lint/testdata/src/seeded",
		analyzer: "mustcheck", file: "seeded.go",
		want: []string{"PushBottom is discarded"},
	},
	// The fixture replays a Pool.Stats plain-counter race; the
	// finding carries both goroutine provenance chains.
	{
		name: "abprace", only: []string{"-only", "abprace"},
		dir:      "../../internal/lint/testdata/src/seededrace",
		analyzer: "abprace", file: "seededrace.go",
		want: []string{
			"possible data race on field steals",
			"goroutine (*Worker).loop",
			"(*Worker).loop -> (*Worker).record",
			"external caller",
			"(*Pool).Stats",
		},
	},
}

// args prefixes the case's analyzer selection and fixture directory.
func (c seededCase) args(extra ...string) []string {
	args := append(append([]string(nil), c.only...), extra...)
	return append(args, "-C", c.dir, ".")
}

// runCLI invokes the command in process and returns its exit status and
// captured streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestExitCleanIsZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"suite", []string{"."}},
		{"abprace", []string{"-only", "abprace", "."}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("clean run printed findings: %q", stdout)
			}
		})
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	for _, tc := range seededCases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args()...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout, want) {
					t.Errorf("text output lacks %q:\n%s", want, stdout)
				}
			}
			if !strings.Contains(stdout, "("+tc.analyzer+")") {
				t.Errorf("finding line does not name its analyzer: %q", stdout)
			}
			if !strings.Contains(stderr, "1 finding(s)") {
				t.Errorf("summary missing from stderr: %q", stderr)
			}
		})
	}
}

func TestExitOperationalErrorIsTwo(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown analyzer", []string{"-only", "nosuch", "."}, "unknown analyzer"},
		{"unused-ignores with -only", []string{"-only", "mustcheck", "-unused-ignores", "."}, "cannot be combined with -only"},
		{"unused-ignores with -only abprace", []string{"-only", "abprace", "-unused-ignores", "."}, "cannot be combined with -only"},
		{"bad flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"load failure", []string{"./no/such/dir"}, "abplint:"},
		{"missing baseline", []string{"-baseline", filepath.Join(dir, "absent.json"), "."}, "abplint:"},
		{"write-baseline with -baseline", []string{
			"-write-baseline", filepath.Join(dir, "new.json"),
			"-baseline", filepath.Join(dir, "old.json"), ".",
		}, "cannot be combined with -baseline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}

func TestErrorsCarryOwnName(t *testing.T) {
	code, _, stderr := runCLI(t, "./no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "abplint:") {
		t.Errorf("operational error not attributed to abplint: %q", stderr)
	}
}

// checkFinding asserts rep holds exactly the case's one finding.
func checkFinding(t *testing.T, tc seededCase, rep lint.Report) {
	t.Helper()
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(rep.Findings), rep.Findings)
	}
	f := rep.Findings[0]
	if f.Analyzer != tc.analyzer || f.File != tc.file {
		t.Errorf("unexpected finding %+v", f)
	}
	for _, want := range tc.want {
		if !strings.Contains(f.Message, want) {
			t.Errorf("message lacks %q:\n%s", want, f.Message)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	for _, tc := range seededCases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, _ := runCLI(t, tc.args("-json")...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1", code)
			}
			var rep lint.Report
			if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
				t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
			}
			checkFinding(t, tc, rep)
		})
	}
}

// sarifLog is the subset of a SARIF 2.1.0 log the tests inspect.
type sarifLog struct {
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name string `json:"name"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
		} `json:"results"`
	} `json:"runs"`
}

func (l sarifLog) check(t *testing.T, tc seededCase) {
	t.Helper()
	if l.Version != "2.1.0" || len(l.Runs) != 1 || len(l.Runs[0].Results) != 1 {
		t.Fatalf("unexpected SARIF shape: %+v", l)
	}
	if name := l.Runs[0].Tool.Driver.Name; name != "abplint" {
		t.Errorf("SARIF driver name = %q, want abplint", name)
	}
	res := l.Runs[0].Results[0]
	if res.RuleID != tc.analyzer {
		t.Errorf("ruleId = %q, want %s", res.RuleID, tc.analyzer)
	}
	for _, want := range tc.want {
		if !strings.Contains(res.Message.Text, want) {
			t.Errorf("SARIF message lacks %q:\n%s", want, res.Message.Text)
		}
	}
}

func TestSARIFToFileAndStdout(t *testing.T) {
	for _, tc := range seededCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "abplint.sarif")
			code, stdout, _ := runCLI(t, tc.args("-sarif", path)...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1", code)
			}
			// Text findings still go to stdout when SARIF targets a file.
			if !strings.Contains(stdout, "("+tc.analyzer+")") {
				t.Errorf("text findings suppressed despite -sarif targeting a file: %q", stdout)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fileLog sarifLog
			if err := json.Unmarshal(data, &fileLog); err != nil {
				t.Fatalf("SARIF file does not parse: %v", err)
			}
			fileLog.check(t, tc)

			// With -sarif -, the log goes to stdout and replaces the text lines.
			code, stdout, _ = runCLI(t, tc.args("-sarif", "-")...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1", code)
			}
			var stdoutLog sarifLog
			if err := json.Unmarshal([]byte(stdout), &stdoutLog); err != nil {
				t.Fatalf("-sarif - stdout is not pure SARIF: %v\n%s", err, stdout)
			}
			stdoutLog.check(t, tc)
		})
	}
}

// expectBaselined asserts a run given the baseline at path exits clean.
func expectBaselined(t *testing.T, tc seededCase, path string) {
	t.Helper()
	code, stdout, stderr := runCLI(t, tc.args("-baseline", path)...)
	if code != 0 {
		t.Fatalf("baselined run: exit = %d, want 0; stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("baselined run still printed findings: %q", stdout)
	}
}

func TestBaselineSuppressesKnownFindings(t *testing.T) {
	for _, tc := range seededCases {
		t.Run(tc.name, func(t *testing.T) {
			// A -json report is itself a baseline.
			_, stdout, _ := runCLI(t, tc.args("-json")...)
			path := filepath.Join(t.TempDir(), "baseline.json")
			if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
				t.Fatal(err)
			}
			expectBaselined(t, tc, path)
		})
	}
}

func TestWriteBaselineRoundTrip(t *testing.T) {
	for _, tc := range seededCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "baseline.json")

			// Recording exits 0 even though findings exist: refreshing a
			// baseline is an accept-the-world operation, not a failed check.
			code, stdout, stderr := runCLI(t, tc.args("-write-baseline", path)...)
			if code != 0 {
				t.Fatalf("write-baseline run: exit = %d, want 0; stderr: %s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("write-baseline run printed findings: %q", stdout)
			}
			if !strings.Contains(stderr, "wrote baseline with 1 finding(s)") {
				t.Errorf("summary missing from stderr: %q", stderr)
			}

			// The file is the -json Report format with the expected finding.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rep lint.Report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("baseline file does not parse as a Report: %v\n%s", err, data)
			}
			checkFinding(t, tc, rep)

			// Round trip: feeding the written baseline back suppresses it.
			expectBaselined(t, tc, path)
		})
	}
}

// TestUnusedIgnores runs -unused-ignores over a fixture holding a stale
// //abp:race-ignore and a stale //abp:ignore mustcheck. A tool judges only
// directives addressed to analyzers it ran: the suite flags both, a tool
// built around abprace alone must stay silent about the mustcheck one.
func TestUnusedIgnores(t *testing.T) {
	cases := []struct {
		name       string
		tool       *lint.Tool
		want, deny []string
	}{
		{
			name: "suite", tool: &lint.Tool{Name: "abplint", Analyzers: lint.All()},
			want: []string{"//abp:race-ignore", "mustcheck"},
		},
		{
			name: "race-only tool", tool: &lint.Tool{Name: "abplint", Analyzers: []*lint.Analyzer{lint.AbpRace}},
			want: []string{"//abp:race-ignore"}, deny: []string{"mustcheck"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := tc.tool.Main([]string{"-unused-ignores", "-C", "testdata/unusedignore", "."}, &out, &errw)
			stdout := out.String()
			if code != 1 {
				t.Fatalf("exit = %d, want 1; stderr: %s", code, errw.String())
			}
			if !strings.Contains(stdout, "suppresses nothing") || !strings.Contains(stdout, "(unused-ignore)") {
				t.Errorf("stale directive not reported: %q", stdout)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout, want) {
					t.Errorf("output lacks %q: %q", want, stdout)
				}
			}
			for _, deny := range tc.deny {
				if strings.Contains(stdout, deny) {
					t.Errorf("judged a directive outside the tool's analyzer set (%q): %q", deny, stdout)
				}
			}
		})
	}
}

func TestListNamesAllTwelve(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	all := lint.All()
	if len(all) != 12 {
		t.Fatalf("suite has %d analyzers, want 12", len(all))
	}
	for _, a := range all {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

// TestListAnalyzers checks that -list prints exactly the analyzers the
// tool was built around: every one of the suite's, and for a tool built
// around abprace alone, none of the others.
func TestListAnalyzers(t *testing.T) {
	cases := []struct {
		name string
		tool *lint.Tool
		deny []string
	}{
		{name: "suite", tool: &lint.Tool{Name: "abplint", Analyzers: lint.All()}},
		{
			name: "race-only tool", tool: &lint.Tool{Name: "abplint", Analyzers: []*lint.Analyzer{lint.AbpRace}},
			deny: []string{"mustcheck"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := tc.tool.Main([]string{"-list"}, &out, &errw); code != 0 {
				t.Fatalf("exit = %d, want 0; stderr: %s", code, errw.String())
			}
			stdout := out.String()
			for _, a := range tc.tool.Analyzers {
				if !strings.Contains(stdout, a.Name) {
					t.Errorf("-list output missing analyzer %s", a.Name)
				}
			}
			for _, deny := range tc.deny {
				if strings.Contains(stdout, deny) {
					t.Errorf("-list names %s, which the tool does not run: %q", deny, stdout)
				}
			}
			if got, want := strings.Count(stdout, "\n"), len(tc.tool.Analyzers); got != want {
				t.Errorf("-list printed %d lines, want %d: %q", got, want, stdout)
			}
		})
	}
}

// TestLivenessFindingsFlowThrough runs the full suite over the seeded
// liveness fixture: the abpwait findings must surface through this front
// end with their analyzer name attached, alongside the rest of the suite.
func TestLivenessFindingsFlowThrough(t *testing.T) {
	const seededWaitDir = "../../internal/lint/testdata/src/seededwait"
	code, stdout, _ := runCLI(t, "-json", "-C", seededWaitDir, ".")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s", code, stdout)
	}
	var rep lint.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	waitFindings := 0
	for _, f := range rep.Findings {
		if f.Analyzer == "abpwait" {
			waitFindings++
		}
	}
	if waitFindings < 2 {
		t.Fatalf("abpwait findings = %d, want >= 2 (naked wait and missed signal): %+v",
			waitFindings, rep.Findings)
	}
}
