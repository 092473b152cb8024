// Command tlmgrep filters a telemetry JSONL stream (written by
// alertsim -telemetry) by packet id, node involvement, event kind or layer,
// so one packet's whole story — or one node's whole day — can be pulled out
// of a multi-megabyte run in one command.
//
// Examples:
//
//	tlmgrep -packet 17 run.jsonl          # everything about packet 17
//	tlmgrep -node 42 run.jsonl            # everything node 42 touched
//	tlmgrep -kind loss run.jsonl          # every lost frame
//	tlmgrep -layer route -packet 3 run.jsonl
//	tlmgrep -count -kind leg run.jsonl    # just count leg terminations
//
// With no file arguments the stream is read from stdin, so it composes with
// compression or a pipe straight out of a run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"alertmanet/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tlmgrep:", err)
		os.Exit(1)
	}
}

// run filters the streams named in args, or stdin when there are none, onto
// stdout. Output is flushed on every return, an input error included, so
// each matching line found before the error arrives whole.
func run(args []string, stdin io.Reader, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tlmgrep", flag.ExitOnError)
	packet := fs.Int("packet", -1, "keep events attributed to this packet id")
	nodeID := fs.Int("node", -1, "keep events involving this node (any role)")
	kind := fs.String("kind", "", "keep events of this kind exactly (e.g. tx, loss, hop, leg, zonecast)")
	layers := fs.String("layer", "", "keep events of these layers (comma-separated sim,medium,route,packet,crypto; empty keeps all)")
	count := fs.Bool("count", false, "print only the number of matching events")
	fs.Parse(args)

	filter := telemetry.NewFilter()
	filter.Trace = *packet
	filter.Node = *nodeID
	filter.Kind = *kind
	if *layers != "" {
		mask, err := telemetry.ParseLayers(*layers)
		if err != nil {
			return err
		}
		filter.Layers = mask
	}

	out := bufio.NewWriter(stdout)
	defer func() {
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
	}()
	matched := 0

	grep := func(name string, r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			ev, err := telemetry.ParseLine(line)
			if err != nil {
				return fmt.Errorf("%s:%d: %w", name, lineNo, err)
			}
			if !filter.Match(ev) {
				continue
			}
			matched++
			if !*count {
				out.Write(line)
				out.WriteByte('\n')
			}
		}
		return sc.Err()
	}

	if fs.NArg() == 0 {
		if err := grep("stdin", stdin); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = grep(path, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if *count {
		fmt.Fprintln(out, matched)
	}
	return nil
}
