// Package ptrfree reports whether a type holds anything the garbage
// collector must trace. The simulator's per-event records (scheduler
// slots, port FIFO entries, in-flight control frames) must hold none, or
// every store to them pays a GC write barrier; the packages' tests guard
// those records with HasPointers.
package ptrfree

import "reflect"

// HasPointers reports whether a value of type t contains any pointer the
// garbage collector must trace.
func HasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && HasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if HasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}
