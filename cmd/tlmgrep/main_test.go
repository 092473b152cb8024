package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"alertmanet/internal/experiment"
	"alertmanet/internal/telemetry"
)

// writeStream runs a 5 s paper-default ALERT scenario with every telemetry
// layer on and returns the stream's path and its parsed events.
func writeStream(t *testing.T) (string, []telemetry.Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := experiment.DefaultScenario()
	sc.Duration = 5
	tap := telemetry.New(f, telemetry.LayerAll)
	if _, _, err := experiment.RunWorld(sc, tap); err != nil {
		t.Fatal(err)
	}
	if err := tap.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return path, evs
}

// parseOutput splits tlmgrep's output into events, failing on any line that
// is not a whole event.
func parseOutput(t *testing.T, out string) []telemetry.Event {
	t.Helper()
	if out == "" {
		return nil
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("output ends mid-line: ...%q", out[max(0, len(out)-60):])
	}
	var evs []telemetry.Event
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		ev, err := telemetry.ParseLine([]byte(line))
		if err != nil {
			t.Fatalf("torn output line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func countMatching(evs []telemetry.Event, keep func(telemetry.Event) bool) int {
	n := 0
	for _, ev := range evs {
		if keep(ev) {
			n++
		}
	}
	return n
}

// TestRunFlushesBeforeInputError pins the output of a run that fails on a
// later input: every line matched before the failure reaches stdout whole,
// however much more than one write buffer it is.
func TestRunFlushesBeforeInputError(t *testing.T) {
	path, evs := writeStream(t)
	var out bytes.Buffer
	err := run([]string{"-kind", "leg", path, filepath.Join(t.TempDir(), "missing.jsonl")}, nil, &out)
	if err == nil {
		t.Fatal("missing second input: run returned nil")
	}
	got := parseOutput(t, out.String())
	want := countMatching(evs, func(ev telemetry.Event) bool { return ev.Kind == "leg" })
	if len(got) != want {
		t.Fatalf("%d leg lines before the error, stream has %d", len(got), want)
	}
	if out.Len() <= 4096 {
		t.Fatalf("only %d matching bytes; the case needs more than one 4096-byte write buffer", out.Len())
	}
}

// TestRunFilters checks each filter against an independent predicate over
// the same stream: the kept lines are exactly the events it selects.
func TestRunFilters(t *testing.T) {
	path, evs := writeStream(t)
	involves := func(ev telemetry.Event, id int) bool {
		return ev.Node == id || ev.From == id || ev.To == id || ev.Src == id || ev.Dst == id
	}
	// Filter by the first packet's source, a node the stream surely names.
	src := -1
	for _, ev := range evs {
		if ev.Layer == "packet" && ev.Src >= 0 {
			src = ev.Src
			break
		}
	}
	if src < 0 {
		t.Fatal("stream has no packet event with a source")
	}
	for _, c := range []struct {
		args []string
		keep func(telemetry.Event) bool
	}{
		{[]string{"-packet", "3"}, func(ev telemetry.Event) bool { return ev.Trace == 3 }},
		{[]string{"-node", strconv.Itoa(src)}, func(ev telemetry.Event) bool { return involves(ev, src) }},
		{[]string{"-kind", "zonecast"}, func(ev telemetry.Event) bool { return ev.Kind == "zonecast" }},
		{[]string{"-layer", "route,crypto"}, func(ev telemetry.Event) bool {
			return ev.Layer == "route" || ev.Layer == "crypto"
		}},
		{[]string{"-layer", "route", "-packet", "3"}, func(ev telemetry.Event) bool {
			return ev.Layer == "route" && ev.Trace == 3
		}},
	} {
		var out bytes.Buffer
		if err := run(append(c.args, path), nil, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		got := parseOutput(t, out.String())
		want := countMatching(evs, c.keep)
		if want == 0 {
			t.Fatalf("%v: the stream has no matching event, the case tests nothing", c.args)
		}
		if len(got) != want || countMatching(got, c.keep) != want {
			t.Errorf("%v: kept %d lines (%d matching), want the stream's %d",
				c.args, len(got), countMatching(got, c.keep), want)
		}
	}
}

// TestRunStdinAndCount reads the stream from stdin: the lines equal a
// file-argument run's, and -count prints only their number.
func TestRunStdinAndCount(t *testing.T) {
	path, _ := writeStream(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fromFile, fromStdin, counted bytes.Buffer
	if err := run([]string{"-kind", "hop", path}, nil, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "hop"}, bytes.NewReader(raw), &fromStdin); err != nil {
		t.Fatal(err)
	}
	if fromStdin.String() != fromFile.String() {
		t.Fatal("stdin output differs from the file-argument output")
	}
	if err := run([]string{"-count", "-kind", "hop"}, bytes.NewReader(raw), &counted); err != nil {
		t.Fatal(err)
	}
	lines := len(parseOutput(t, fromFile.String()))
	if counted.String() != strconv.Itoa(lines)+"\n" {
		t.Fatalf("-count printed %q, want %d", counted.String(), lines)
	}
}

// TestRunRejectsBadInput covers the error paths that stop before or while
// reading: an unknown layer and a line that is not an event.
func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-layer", "radio"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown layer accepted")
	}
	err := run(nil, strings.NewReader("{\"t\":1,\"layer\":\"route\",\"kind\":\"hop\"}\nnot json\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "stdin:2") {
		t.Errorf("malformed line 2: err = %v, want one naming stdin:2", err)
	}
	if out.String() != "{\"t\":1,\"layer\":\"route\",\"kind\":\"hop\"}\n" {
		t.Errorf("output before the malformed line = %q", out.String())
	}
}
