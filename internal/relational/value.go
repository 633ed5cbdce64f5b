// Package relational implements the embedded relational database that backs
// the Sensor Metadata Repository, standing in for the MySQL instance under
// Semantic MediaWiki in the original deployment. It provides typed tables
// with ordered secondary indexes, a read-only SQL subset (SELECT with
// WHERE, JOIN, GROUP BY, aggregates, ORDER BY, LIMIT/OFFSET — every query
// shape the metadata search interface issues) and typed writes: schemas
// and indexes are built with CreateTable and Table.AddIndex, rows arrive
// through Insert, through ReplaceRows, which swaps all rows of one key
// across several tables under one lock hold, and through LoadRows, which
// bulk-appends a restored table.
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is a column type.
type Type uint8

const (
	// TypeInt is a 64-bit signed integer column.
	TypeInt Type = iota
	// TypeFloat is a float64 column.
	TypeFloat
	// TypeText is a string column.
	TypeText
	// TypeBool is a boolean column.
	TypeBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a single typed cell. The zero Value is NULL.
type Value struct {
	typ    Type
	isNull bool
	i      int64
	f      float64
	s      string
	b      bool
}

// Null returns the NULL value.
func Null() Value { return Value{isNull: true} }

// Int returns an integer value.
func Int(v int64) Value { return Value{typ: TypeInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{typ: TypeFloat, f: v} }

// Text returns a text value.
func Text(v string) Value { return Value{typ: TypeText, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{typ: TypeBool, b: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.isNull }

// Type returns the value's type. The result is meaningless for NULL.
func (v Value) Type() Type { return v.typ }

// Int64 returns the integer content (0 when not an int).
func (v Value) Int64() int64 { return v.i }

// Float64 returns the numeric content, converting ints.
func (v Value) Float64() float64 {
	if v.typ == TypeInt {
		return float64(v.i)
	}
	return v.f
}

// Text0 returns the string content ("" when not text).
func (v Value) Text0() string { return v.s }

// Bool0 returns the boolean content (false when not bool).
func (v Value) Bool0() bool { return v.b }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool {
	return !v.isNull && (v.typ == TypeInt || v.typ == TypeFloat)
}

// String renders the value for display and for stable index keys.
func (v Value) String() string {
	if v.isNull {
		return "NULL"
	}
	switch v.typ {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeText:
		return v.s
	case TypeBool:
		if v.b {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values: NULL sorts first; numerics compare numerically
// across int/float; text and bool compare within type. Comparing
// incompatible types orders by type id so sorting stays total. It returns
// -1, 0 or 1.
func Compare(a, b Value) int {
	switch {
	case a.isNull && b.isNull:
		return 0
	case a.isNull:
		return -1
	case b.isNull:
		return 1
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.Float64(), b.Float64()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.typ != b.typ {
		if a.typ < b.typ {
			return -1
		}
		return 1
	}
	switch a.typ {
	case TypeText:
		return strings.Compare(a.s, b.s)
	case TypeBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// Equal reports whether two values compare equal. NULL equals nothing,
// matching SQL semantics (use Compare for sorting, where NULLs group).
func Equal(a, b Value) bool {
	if a.isNull || b.isNull {
		return false
	}
	return Compare(a, b) == 0
}

// Coerce converts v to column type t when a lossless conversion exists
// (int→float, numeric string parsing is deliberately *not* attempted).
// NULL coerces to every type.
func Coerce(v Value, t Type) (Value, error) {
	if v.isNull {
		return v, nil
	}
	if v.typ == t {
		return v, nil
	}
	if v.typ == TypeInt && t == TypeFloat {
		return Float(float64(v.i)), nil
	}
	return Value{}, fmt.Errorf("relational: cannot store %s value %q in %s column", v.typ, v.String(), t)
}
