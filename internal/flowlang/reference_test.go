package flowlang

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"idxflow/internal/dataflow"
	"idxflow/internal/workload"
)

// parseReference is the parser this package shipped up to PR 22, verbatim: a
// bufio.Scanner over the reader, strings.TrimSpace and strings.Fields per
// line. It stays as the oracle FuzzParseEqualsReference and
// TestParseEqualsReferenceOnWorkloads hold Parse to; nothing outside the
// tests calls it.
func parseReference(r io.Reader) (*dataflow.Flow, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	flow := &dataflow.Flow{Graph: dataflow.New()}
	names := make(map[string]dataflow.OpID)
	sawFlow := false
	lineNo := 0

	fail := func(format string, args ...interface{}) error {
		return &ParseError{Line: lineNo, Msg: fmt.Sprintf(format, args...)}
	}

	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "flow":
			if sawFlow {
				return nil, fail("duplicate flow line")
			}
			if len(fields) < 2 {
				return nil, fail("flow needs a name")
			}
			sawFlow = true
			flow.Name = fields[1]
			for _, f := range fields[2:] {
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				switch k {
				case "issued":
					t, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return nil, fail("bad issued %q", v)
					}
					flow.IssuedAt = t
				default:
					return nil, fail("unknown flow attribute %q", k)
				}
			}

		case "input":
			if len(fields) != 2 {
				return nil, fail("input needs exactly one path")
			}
			flow.Inputs = append(flow.Inputs, fields[1])

		case "op":
			if len(fields) < 2 {
				return nil, fail("op needs a name")
			}
			name := fields[1]
			if _, dup := names[name]; dup {
				return nil, fail("duplicate op %q", name)
			}
			op := dataflow.Operator{Name: name, CPU: 1, Memory: 0.25}
			for _, f := range fields[2:] {
				if f == "optional" {
					op.Optional = true
					continue
				}
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				switch k {
				case "kind":
					kk, ok := kindNames[v]
					if !ok {
						return nil, fail("unknown kind %q", v)
					}
					op.Kind = kk
				case "time":
					op.Time, err = strconv.ParseFloat(v, 64)
				case "cpu":
					op.CPU, err = strconv.ParseFloat(v, 64)
				case "mem":
					op.Memory, err = strconv.ParseFloat(v, 64)
				case "disk":
					op.Disk, err = strconv.ParseFloat(v, 64)
				case "priority":
					op.Priority, err = strconv.Atoi(v)
				case "reads":
					op.Reads = strings.Split(v, ",")
				case "builds":
					op.BuildsIndex = v
				default:
					return nil, fail("unknown op attribute %q", k)
				}
				if err != nil {
					return nil, fail("bad value %q for %s", v, k)
				}
			}
			names[name] = flow.Graph.Add(op)

		case "edge":
			// edge <from> -> <to> [size=N]
			if len(fields) < 4 || fields[2] != "->" {
				return nil, fail("edge syntax: edge <from> -> <to> [size=N]")
			}
			from, ok := names[fields[1]]
			if !ok {
				return nil, fail("unknown op %q", fields[1])
			}
			to, ok := names[fields[3]]
			if !ok {
				return nil, fail("unknown op %q", fields[3])
			}
			size := 0.0
			for _, f := range fields[4:] {
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				if k != "size" {
					return nil, fail("unknown edge attribute %q", k)
				}
				size, err = strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fail("bad size %q", v)
				}
			}
			if err := flow.Graph.Connect(from, to, size); err != nil {
				return nil, fail("%v", err)
			}

		case "index":
			// index <name> ops=<op>:<speedup>,...
			if len(fields) < 3 {
				return nil, fail("index syntax: index <name> ops=op:speedup,...")
			}
			iu := dataflow.IndexUse{Index: fields[1], Speedup: make(map[dataflow.OpID]float64)}
			for _, f := range fields[2:] {
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				if k != "ops" {
					return nil, fail("unknown index attribute %q", k)
				}
				for _, pair := range strings.Split(v, ",") {
					parts := strings.SplitN(pair, ":", 2)
					if len(parts) != 2 {
						return nil, fail("index op needs op:speedup, got %q", pair)
					}
					id, ok := names[parts[0]]
					if !ok {
						return nil, fail("unknown op %q", parts[0])
					}
					sp, err := strconv.ParseFloat(parts[1], 64)
					if err != nil {
						return nil, fail("bad speedup %q", parts[1])
					}
					iu.Speedup[id] = sp
				}
			}
			flow.Indexes = append(flow.Indexes, iu)

		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if !sawFlow {
		return nil, &ParseError{Line: lineNo, Msg: "missing flow line"}
	}
	if err := flow.Graph.Validate(); err != nil {
		return nil, err
	}
	return flow, nil
}

// sameAsReference holds Parse (through a reader) and ParseString to the
// reference on one input: the same accept/reject; where the reference
// returns a *ParseError, the same line and message; where both accept,
// deeply equal flows. The reference's other errors (the scanner's
// ErrTooLong, Graph.Validate's) only have to be errors.
func sameAsReference(t *testing.T, src string) {
	t.Helper()
	want, wantErr := parseReference(strings.NewReader(src))
	fromReader, errReader := Parse(strings.NewReader(src))
	fromString, errString := ParseString(src)
	for _, got := range []struct {
		how  string
		flow *dataflow.Flow
		err  error
	}{{"Parse", fromReader, errReader}, {"ParseString", fromString, errString}} {
		if (got.err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, reference %v", got.how, got.err, wantErr)
		}
		var wantPE, gotPE *ParseError
		if errors.As(wantErr, &wantPE) && (!errors.As(got.err, &gotPE) || *gotPE != *wantPE) {
			t.Fatalf("%s: error %v, reference %v", got.how, got.err, wantErr)
		}
		if !reflect.DeepEqual(got.flow, want) {
			t.Fatalf("%s: flow %+v, reference %+v", got.how, got.flow, want)
		}
	}
}

// FuzzParseEqualsReference is the differential target. Its seeds beyond the
// sample are the files under testdata/fuzz: Unicode separators, empty list
// members, a repeated ops=, odd line endings, invalid UTF-8, edges between
// op lines, and a flow with no op line (presizing must leave the graph's nil
// slices nil).
func FuzzParseEqualsReference(f *testing.F) {
	f.Add(sample)
	f.Add(strings.ReplaceAll(sample, "\n", "\r\n"))
	f.Fuzz(sameAsReference)
}

// TestParseEqualsReferenceOnWorkloads runs the differential check over the
// bodies the server sees: 200 generator flows of the three applications.
func TestParseEqualsReferenceOnWorkloads(t *testing.T) {
	db, err := workload.NewFileDB(7)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(db, 7)
	for seq := 0; seq < 200; seq++ {
		sameAsReference(t, Marshal(gen.Flow(workload.Apps[seq%len(workload.Apps)], seq, float64(seq))))
	}
}

// TestParseLongLine pins the line limit where the reference's scanner had
// it: a line of 1 MiB or more is refused, now with its line number.
func TestParseLongLine(t *testing.T) {
	head := "flow f\nop a time=1\n"
	atLimit := head + "#" + strings.Repeat("x", maxLine-1) + "\nop b time=1\n"
	sameAsReference(t, atLimit)
	if f, err := ParseString(atLimit); err != nil || f.Graph.Len() != 2 {
		t.Fatalf("a line of %d bytes: %v", maxLine, err)
	}
	over := head + "#" + strings.Repeat("x", maxLine) + "\n"
	sameAsReference(t, over)
	var pe *ParseError
	if _, err := ParseString(over); !errors.As(err, &pe) || pe.Line != 3 {
		t.Fatalf("a line of %d bytes: error %v, want a ParseError at line 3", maxLine+1, err)
	}
	sameAsReference(t, head+"#"+strings.Repeat("x", maxLine)) // the same at the end of the input
	sameAsReference(t, "zap\n"+over)                          // an earlier syntax error wins
}

// errReader fails once its text is read.
type errReader struct {
	text io.Reader
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	n, err := r.text.Read(p)
	if err == io.EOF {
		err = r.err
	}
	return n, err
}

// TestParseReadError: the reader's error is returned wrapped, not dressed
// as a syntax error, and a reader that announces no length, or a wrong one,
// is still read to its end.
func TestParseReadError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Parse(&errReader{text: strings.NewReader(sample), err: boom})
	var pe *ParseError
	if !errors.Is(err, boom) || errors.As(err, &pe) {
		t.Fatalf("error %v, want one wrapping the reader's", err)
	}
	want, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	long := sample + strings.Repeat("# padding\n", 200)
	for name, r := range map[string]io.Reader{
		"no Len":    &errReader{text: strings.NewReader(long), err: io.EOF},
		"short Len": shortLen{strings.NewReader(long)},
		"one byte":  iotest.OneByteReader(strings.NewReader(long)),
	} {
		if got, err := Parse(r); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flow %+v, error %v", name, got, err)
		}
	}
}

// shortLen announces a tenth of what it holds.
type shortLen struct{ *strings.Reader }

func (r shortLen) Len() int { return r.Reader.Len() / 10 }
