package obs

// Hand-rolled TraceEvent encoder. Span ends ride the engines' per-cell
// path, and encoding/json's reflective marshal was the dominant cost of
// an emission (and most of its garbage). appendEvent produces bytes
// IDENTICAL to json.Marshal of the same event — field order, omitempty
// behavior, HTML escaping, float and timestamp formatting — so trace
// files stay byte-compatible with the pre-existing schema; the golden
// test and TestAppendEventMatchesEncodingJSON enforce the equivalence.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// appendEvent appends ev as one compact JSON object plus a trailing
// newline — exactly what json.Encoder.Encode(ev) would write. It
// returns an error (and no bytes) where json.Marshal would: an
// out-of-range year or a non-finite float.
func appendEvent(buf []byte, ev *TraceEvent) ([]byte, error) {
	var stack [16]attr
	attrs := stack[:0]
	for k, v := range ev.Attrs {
		attrs = setAttr(attrs, k, v)
	}
	return appendObject(buf, ev, attrs)
}

// appendEventKV is appendEvent for an event whose attrs are still the
// alternating key, value lists a span or event was given (ev.Attrs is
// ignored). The output is byte-identical to appendEvent of the map
// attrMap would build from the lists merged in order — non-string keys
// and an odd trailing key dropped, a repeated key keeping its last
// value — without building that map: the tracer's writer path emits
// every cell span through here.
func appendEventKV(buf []byte, ev *TraceEvent, lists ...[]any) ([]byte, error) {
	var stack [16]attr
	attrs := stack[:0]
	for _, kv := range lists {
		for i := 0; i+1 < len(kv); i += 2 {
			if k, ok := kv[i].(string); ok {
				attrs = setAttr(attrs, k, kv[i+1])
			}
		}
	}
	return appendObject(buf, ev, attrs)
}

// attr is one key, value pair of an event's sorted attribute set.
type attr struct {
	k string
	v any
}

// setAttr inserts k, v into the key-sorted set attrs (json.Marshal
// sorts map keys), replacing the value of an existing k, as a map
// assignment would.
func setAttr(attrs []attr, k string, v any) []attr {
	i := len(attrs)
	for i > 0 && attrs[i-1].k >= k {
		i--
	}
	if i < len(attrs) && attrs[i].k == k {
		attrs[i].v = v
		return attrs
	}
	attrs = append(attrs, attr{})
	copy(attrs[i+1:], attrs[i:])
	attrs[i] = attr{k, v}
	return attrs
}

// appendObject appends ev's members in the struct's field order, with
// attrs (sorted by key) as the attrs object, and the trailing newline.
func appendObject(buf []byte, ev *TraceEvent, attrs []attr) ([]byte, error) {
	var err error
	buf = append(buf, `{"ts":`...)
	if buf, err = appendTime(buf, ev.Time); err != nil {
		return nil, err
	}
	if ev.SpanID != "" {
		buf = append(buf, `,"span":`...)
		buf = appendString(buf, ev.SpanID)
	}
	if ev.Parent != "" {
		buf = append(buf, `,"parent":`...)
		buf = appendString(buf, ev.Parent)
	}
	buf = append(buf, `,"kind":`...)
	buf = appendString(buf, ev.Kind)
	buf = append(buf, `,"name":`...)
	buf = appendString(buf, ev.Name)
	if ev.Start != nil {
		buf = append(buf, `,"start":`...)
		if buf, err = appendTime(buf, *ev.Start); err != nil {
			return nil, err
		}
	}
	if ev.DurMS != 0 {
		buf = append(buf, `,"dur_ms":`...)
		if buf, err = appendFloat(buf, ev.DurMS); err != nil {
			return nil, err
		}
	}
	if len(attrs) > 0 {
		buf = append(buf, `,"attrs":{`...)
		for i, a := range attrs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendString(buf, a.k)
			buf = append(buf, ':')
			if buf, err = appendValue(buf, a.v); err != nil {
				return nil, err
			}
		}
		buf = append(buf, '}')
	}
	return append(buf, '}', '\n'), nil
}

// appendTime appends t as json would: a quoted RFC 3339 timestamp with
// trailing fractional zeros trimmed. time.Time.MarshalJSON rejects
// years outside [0, 9999]; so does this. Consecutive events nearly
// always fall in one second, so the formatted second and zone are
// cached (lastSecond) and only the fraction is formatted per call.
func appendTime(buf []byte, t time.Time) ([]byte, error) {
	sec, loc := t.Unix(), t.Location()
	c := lastSecond.Load()
	if c == nil || c.sec != sec || c.loc != loc {
		if y := t.Year(); y < 0 || y >= 10000 {
			return nil, fmt.Errorf("obs: trace timestamp year %d out of RFC 3339 range", y)
		}
		s := t.Truncate(time.Second).AppendFormat(nil, time.RFC3339)
		c = &formattedSecond{sec: sec, loc: loc, clock: s[:19], zone: s[19:]}
		lastSecond.Store(c)
	}
	buf = append(buf, '"')
	buf = append(buf, c.clock...)
	if ns := t.Nanosecond(); ns != 0 {
		// RFC3339Nano's fraction: nine digits, trailing zeros trimmed.
		var frac [10]byte
		frac[0] = '.'
		for i := 9; i > 0; i-- {
			frac[i] = byte('0' + ns%10)
			ns /= 10
		}
		n := len(frac)
		for frac[n-1] == '0' {
			n--
		}
		buf = append(buf, frac[:n]...)
	}
	buf = append(buf, c.zone...)
	return append(buf, '"'), nil
}

// formattedSecond is one whole second formatted in RFC 3339 in one
// location: the date and clock ("2006-01-02T15:04:05") and the zone
// ("Z" or "+09:00").
type formattedSecond struct {
	sec         int64
	loc         *time.Location
	clock, zone []byte
}

// lastSecond is the second appendTime formatted last, shared by every
// tracer; entries are immutable once stored.
var lastSecond atomic.Pointer[formattedSecond]

// appendFloat appends f in json.Marshal's float syntax: 'f' notation in
// the human range, 'e' notation with a minimal exponent outside it.
func appendFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("obs: non-finite trace value %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// json trims "e-09" to "e-9".
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

// appendValue appends one attribute value. The concrete types the
// engines emit are handled inline; anything else falls back to
// json.Marshal, whose compact HTML-escaped output is what the inline
// cases reproduce.
func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...), nil
	case string:
		return appendString(buf, x), nil
	case bool:
		return strconv.AppendBool(buf, x), nil
	case int:
		return strconv.AppendInt(buf, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(buf, x, 10), nil
	case uint64:
		return strconv.AppendUint(buf, x, 10), nil
	case float64:
		return appendFloat(buf, x)
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		return append(buf, raw...), nil
	}
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes json.Marshal passes through verbatim
// with HTML escaping on (its default): printable, except the quote and
// backslash, and the HTML-significant '<', '>' and '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	safe['"'], safe['\\'] = false, false
	safe['<'], safe['>'], safe['&'] = false, false, false
	return
}()

// appendString appends s as a quoted JSON string, matching
// json.Marshal's escaping exactly: backslash shorthands for the quote,
// backslash, newline, carriage return and tab; \u00xx for the other
// control characters and for the HTML-significant ASCII; \ufffd for
// invalid UTF-8; and \u2028 / \u2029 for the two line separators
// JavaScript cannot take raw.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
