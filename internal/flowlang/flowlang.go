// Package flowlang implements a small line-oriented text format for
// dataflows — the "expr" of the paper's application model d(expr, R, N, t).
// It lets flows be authored in files, shipped to the service, and round-
// tripped for debugging:
//
//	# a dataflow definition
//	flow etl-1 issued=120
//	input A/0
//	op scan kind=range time=40 cpu=1 mem=0.25 reads=A/0
//	op join kind=join time=30
//	op build kind=build-index time=25 optional priority=-1 builds=idx/A/orderkey/0
//	edge scan -> join size=64
//	index A/orderkey ops=scan:94.44,join:7.44
//
// Operator names are unique identifiers; "index" lines associate a
// potential index with per-operator speedups (the N of the model).
package flowlang

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"idxflow/internal/dataflow"
)

// kindNames maps the text names to operator kinds.
var kindNames = map[string]dataflow.Kind{
	"process":     dataflow.KindProcess,
	"lookup":      dataflow.KindLookup,
	"range":       dataflow.KindRangeSelect,
	"sort":        dataflow.KindSort,
	"group":       dataflow.KindGroup,
	"join":        dataflow.KindJoin,
	"partition":   dataflow.KindPartition,
	"aggregate":   dataflow.KindAggregate,
	"build-index": dataflow.KindBuildIndex,
}

func kindName(k dataflow.Kind) string {
	for name, kk := range kindNames {
		if kk == k {
			return name
		}
	}
	return "process"
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("flowlang: line %d: %s", e.Line, e.Msg)
}

// maxLine is the longest line Parse accepts, in bytes before its newline: a
// line of 1 MiB or more is refused.
const maxLine = 1<<20 - 1

// Parse reads one flow definition. It reads r to its end into one buffer —
// sized by r.Len() where the reader has one, as strings.Reader, bytes.Buffer
// and the server's request body do — and parses a private copy of it as
// ParseString does; an error of r comes back wrapped, not as a *ParseError.
func Parse(r io.Reader) (*dataflow.Flow, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// MinRead more than announced, so that the read which finds the
		// end does not have to grow the buffer first.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("flowlang: read: %w", err)
	}
	return ParseString(buf.String())
}

// ParseString parses a flow from a string, in one pass that allocates per
// flow and per operator, not per line or token. The strings of the flow that
// outlive a submit, Flow.Name (every FlowResult keeps it) and IndexUse.Index
// (a key of the tuner's gain history), are allocations of their own; every
// other string of the flow — operator names, input and read paths — is a
// substring of s and keeps s alive for as long as the flow is.
func ParseString(s string) (*dataflow.Flow, error) {
	flow := &dataflow.Flow{Graph: dataflow.New()}
	// The counts are exact: a counted line adds its operator, input or
	// index, or fails the parse. That matters because presizing for a count
	// of zero would turn a nil slice of the flow into an empty one.
	nOps, nInputs, nIndexes := countDirectives(s)
	flow.Graph.Grow(nOps)
	if nInputs > 0 {
		flow.Inputs = make([]string, 0, nInputs)
	}
	if nIndexes > 0 {
		flow.Indexes = make([]dataflow.IndexUse, 0, nIndexes)
	}
	names := make(map[string]dataflow.OpID, nOps)
	sawFlow := false
	lineNo := 0
	var fields []string // the current line's tokens; reused from line to line

	fail := func(format string, args ...interface{}) error {
		return &ParseError{Line: lineNo, Msg: fmt.Sprintf(format, args...)}
	}

	for rest := s; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		if len(line) > maxLine {
			return nil, fail("line of %d bytes; the limit is %d", len(line), maxLine)
		}
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		switch fields[0] {
		case "flow":
			if sawFlow {
				return nil, fail("duplicate flow line")
			}
			if len(fields) < 2 {
				return nil, fail("flow needs a name")
			}
			sawFlow = true
			flow.Name = strings.Clone(fields[1])
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
			pairs := 0
			for _, f := range fields[2:] {
				pairs += strings.Count(f, ",") + 1
			}
			speedup := make(map[dataflow.OpID]float64, pairs)
			for _, f := range fields[2:] {
				k, v, err := splitKV(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				if k != "ops" {
					return nil, fail("unknown index attribute %q", k)
				}
				for more := true; more; {
					var pair string
					pair, v, more = strings.Cut(v, ",")
					name, factor, ok := strings.Cut(pair, ":")
					if !ok {
						return nil, fail("index op needs op:speedup, got %q", pair)
					}
					id, ok := names[name]
					if !ok {
						return nil, fail("unknown op %q", name)
					}
					sp, err := strconv.ParseFloat(factor, 64)
					if err != nil {
						return nil, fail("bad speedup %q", factor)
					}
					speedup[id] = sp
				}
			}
			flow.Indexes = append(flow.Indexes, dataflow.IndexUse{Index: strings.Clone(fields[1]), Speedup: speedup})

		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if !sawFlow {
		return nil, &ParseError{Line: lineNo, Msg: "missing flow line"}
	}
	if err := flow.Graph.Validate(); err != nil {
		return nil, err
	}
	return flow, nil
}

// space returns the width in bytes of the separator that starts at s[i], 0
// when s[i] belongs to a token. Separators are the white space the strings
// package splits fields at: the ASCII set on the fast path, unicode.IsSpace
// from 0x80 up, where an invalid or continuation byte decodes to no space.
func space(s string, i int) int {
	c := s[i]
	if c < utf8.RuneSelf {
		if c == ' ' || c-'\t' <= '\r'-'\t' {
			return 1
		}
		return 0
	}
	if r, w := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// field returns the bounds of the first token of s at or after i, and
// len(s), len(s) when there is none.
func field(s string, i int) (start, end int) {
	for i < len(s) {
		w := space(s, i)
		if w == 0 {
			break
		}
		i += w
	}
	start = i
	for i < len(s) && space(s, i) == 0 {
		i++
	}
	return start, i
}

// appendFields appends the tokens of line to dst, as substrings of it.
func appendFields(dst []string, line string) []string {
	for start, end := field(line, 0); start < end; start, end = field(line, end) {
		dst = append(dst, line[start:end])
	}
	return dst
}

// countDirectives counts the op, input and index lines of s.
func countDirectives(s string) (ops, inputs, indexes int) {
	for rest := s; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		start, end := field(line, 0)
		switch line[start:end] {
		case "op":
			ops++
		case "input":
			inputs++
		case "index":
			indexes++
		}
	}
	return ops, inputs, indexes
}

// Marshal renders a flow in the flowlang format; Parse(Marshal(f)) is
// structurally equivalent to f.
func Marshal(f *dataflow.Flow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow %s issued=%s\n", nameOrDefault(f.Name), trim(f.IssuedAt))
	for _, in := range f.Inputs {
		fmt.Fprintf(&b, "input %s\n", in)
	}
	// Stable op naming: op<ID>.
	opName := func(id dataflow.OpID) string { return fmt.Sprintf("op%d", id) }
	ids := f.Graph.Ops()
	for _, id := range ids {
		op := f.Graph.Op(id)
		fmt.Fprintf(&b, "op %s kind=%s time=%s cpu=%s mem=%s",
			opName(id), kindName(op.Kind), trim(op.Time), trim(op.CPU), trim(op.Memory))
		if op.Disk != 0 {
			fmt.Fprintf(&b, " disk=%s", trim(op.Disk))
		}
		if op.Priority != 0 {
			fmt.Fprintf(&b, " priority=%d", op.Priority)
		}
		if op.Optional {
			b.WriteString(" optional")
		}
		if len(op.Reads) > 0 {
			fmt.Fprintf(&b, " reads=%s", strings.Join(op.Reads, ","))
		}
		if op.BuildsIndex != "" {
			fmt.Fprintf(&b, " builds=%s", op.BuildsIndex)
		}
		b.WriteByte('\n')
	}
	for _, id := range ids {
		for _, e := range f.Graph.Out(id) {
			fmt.Fprintf(&b, "edge %s -> %s size=%s\n", opName(e.From), opName(e.To), trim(e.Size))
		}
	}
	for _, iu := range f.Indexes {
		ops := make([]dataflow.OpID, 0, len(iu.Speedup))
		for id := range iu.Speedup {
			ops = append(ops, id)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		pairs := make([]string, len(ops))
		for i, id := range ops {
			pairs[i] = fmt.Sprintf("%s:%s", opName(id), trim(iu.Speedup[id]))
		}
		fmt.Fprintf(&b, "index %s ops=%s\n", iu.Index, strings.Join(pairs, ","))
	}
	return b.String()
}

func nameOrDefault(name string) string {
	if name == "" {
		return "unnamed"
	}
	return name
}

func trim(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func splitKV(f string) (string, string, error) {
	i := strings.IndexByte(f, '=')
	if i <= 0 || i == len(f)-1 {
		return "", "", fmt.Errorf("expected key=value, got %q", f)
	}
	return f[:i], f[i+1:], nil
}
