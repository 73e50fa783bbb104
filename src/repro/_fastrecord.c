/* Compiled encode-at-record kernel for the DSspy hot path.
 *
 * One Recorder instance replaces `EventCollector.record` when the
 * fast path engages (see repro/events/fastpath.py).  A call packs the
 * event straight into the calling thread's bytearray in the 39-byte
 * spill layout of repro/events/spill.py:
 *
 *     instance_id  int64   little-endian, offset  0
 *     position     int64                  offset  8  (0 when absent)
 *     size         int64                  offset 16
 *     thread_id    int32                  offset 24
 *     op           uint8                  offset 28
 *     kind         uint8                  offset 29
 *     flags        uint8                  offset 30  (bit 0: has position)
 *     wall_time    float64                offset 31  (always 0.0 here:
 *                                         the fast path never captures
 *                                         wall time; bit 1 stays clear)
 *
 * The type is vectorcall-enabled so `self._record_fn(iid, op, kind,
 * pos, size)` from TrackedBase dispatches without tuple/dict
 * argument packing.  Thread dispatch is a one-slot ident cache backed
 * by a dict: the common case (same thread as last call) costs one
 * integer compare; a miss calls the Python-side `bind` callable, which
 * is the slow boundary where the collector registers the thread and
 * the channel enforces its backpressure gate.  `invalidate()` empties
 * both cache levels, forcing every thread back through `bind` — the
 * channel uses it to re-impose the gate, and the fork handler uses it
 * to drop buffers that belong to the parent process.
 *
 * Runtime-guard diversion: a Recorder built with a guard cell (the
 * one-slot `repro.runtime.guard.ACTIVE_GUARD` list) and a `guarded`
 * callable checks the cell on every call — one pointer compare — and,
 * while a guard is armed, hands the call to `guarded` instead of
 * packing.  That callable is the collector's firewall: it skips the
 * event or contains its faults, and packs through `store`, the same
 * kernel without the diversion.  So containment follows the guard per
 * event, whenever the structure holding this kernel was built.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <string.h>
#include "pythread.h"

#define RECORD_SIZE 39

typedef struct {
    PyObject_HEAD
    vectorcallfunc vcall;
    PyObject *buffers;      /* dict: thread ident (int) -> (tid, bytearray) */
    PyObject *bind;         /* callable() -> (tid, bytearray) for caller    */
    unsigned long cached_ident;
    long cached_tid;
    PyObject *cached_buf;   /* strong reference to the cached bytearray */
    PyObject *guard_cell;   /* optional one-slot list; non-None diverts   */
    PyObject *guarded;      /* callable taking diverted calls (or NULL)  */
} RecorderObject;

static int
recorder_bind(RecorderObject *self, unsigned long ident)
{
    PyObject *key = PyLong_FromUnsignedLong(ident);
    if (key == NULL)
        return -1;
    PyObject *pair = PyDict_GetItemWithError(self->buffers, key); /* borrowed */
    if (pair == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        pair = PyObject_CallNoArgs(self->bind);
        if (pair == NULL) {
            Py_DECREF(key);
            return -1;
        }
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2
            || !PyByteArray_Check(PyTuple_GET_ITEM(pair, 1))) {
            PyErr_SetString(PyExc_TypeError,
                            "bind callable must return (thread_id, bytearray)");
            Py_DECREF(pair);
            Py_DECREF(key);
            return -1;
        }
        if (PyDict_SetItem(self->buffers, key, pair) < 0) {
            Py_DECREF(pair);
            Py_DECREF(key);
            return -1;
        }
        Py_DECREF(pair); /* the dict holds it now */
    }
    Py_DECREF(key);
    long tid = PyLong_AsLong(PyTuple_GET_ITEM(pair, 0));
    if (tid == -1 && PyErr_Occurred())
        return -1;
    PyObject *buf = PyTuple_GET_ITEM(pair, 1);
    Py_INCREF(buf);
    Py_XSETREF(self->cached_buf, buf);
    self->cached_ident = ident;
    self->cached_tid = tid;
    return 0;
}

static PyObject *
recorder_store(PyObject *obj, PyObject *const *args, Py_ssize_t nargs)
{
    RecorderObject *self = (RecorderObject *)obj;
    if (nargs != 5) {
        PyErr_SetString(
            PyExc_TypeError,
            "record expects (instance_id, op, kind, position, size)");
        return NULL;
    }
    unsigned long ident = PyThread_get_thread_ident();
    if (ident != self->cached_ident || self->cached_buf == NULL) {
        if (recorder_bind(self, ident) < 0)
            return NULL;
    }
    long long iid = PyLong_AsLongLong(args[0]);
    if (iid == -1 && PyErr_Occurred())
        return NULL;
    long op = PyLong_AsLong(args[1]);
    if (op == -1 && PyErr_Occurred())
        return NULL;
    long kind = PyLong_AsLong(args[2]);
    if (kind == -1 && PyErr_Occurred())
        return NULL;
    if ((unsigned long)op > 255 || (unsigned long)kind > 255) {
        PyErr_SetString(PyExc_ValueError, "op/kind out of uint8 range");
        return NULL;
    }
    long long pos = 0;
    unsigned char flags = 0;
    if (args[3] != Py_None) {
        pos = PyLong_AsLongLong(args[3]);
        if (pos == -1 && PyErr_Occurred())
            return NULL;
        flags = 1; /* has-position */
    }
    long long size = PyLong_AsLongLong(args[4]);
    if (size == -1 && PyErr_Occurred())
        return NULL;

    PyObject *buf = self->cached_buf;
    Py_ssize_t old = PyByteArray_GET_SIZE(buf);
    if (PyByteArray_Resize(buf, old + RECORD_SIZE) < 0)
        return NULL;
    char *p = PyByteArray_AS_STRING(buf) + old;
    /* Matches struct.Struct("<qqqiBBBd") on every platform CPython
     * supports (little-endian, no padding in the manual layout). */
    memcpy(p, &iid, 8);
    memcpy(p + 8, &pos, 8);
    memcpy(p + 16, &size, 8);
    int32_t tid32 = (int32_t)self->cached_tid;
    memcpy(p + 24, &tid32, 4);
    p[28] = (unsigned char)op;
    p[29] = (unsigned char)kind;
    p[30] = flags;
    memset(p + 31, 0, 8); /* wall_time: 0.0, has-wall flag clear */
    Py_RETURN_NONE;
}

static PyObject *
recorder_call(PyObject *obj, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    RecorderObject *self = (RecorderObject *)obj;
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames)) {
        PyErr_SetString(PyExc_TypeError, "record takes no keyword arguments");
        return NULL;
    }
    PyObject *cell = self->guard_cell;
    if (cell != NULL && PyList_GET_SIZE(cell) > 0
        && PyList_GET_ITEM(cell, 0) != Py_None)
        return PyObject_Vectorcall(self->guarded, args, nargsf, NULL);
    return recorder_store(obj, args, PyVectorcall_NARGS(nargsf));
}

static int
recorder_init(RecorderObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *bind;
    PyObject *guard_cell = Py_None;
    PyObject *guarded = Py_None;
    if (kwds != NULL && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "Recorder takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O|OO", &bind, &guard_cell, &guarded))
        return -1;
    if (guard_cell != Py_None
        && (!PyList_Check(guard_cell) || !PyCallable_Check(guarded))) {
        PyErr_SetString(PyExc_TypeError,
                        "Recorder(bind, guard_cell, guarded) needs a list "
                        "guard cell and a callable");
        return -1;
    }
    Py_INCREF(bind);
    Py_XSETREF(self->bind, bind);
    if (guard_cell == Py_None) {
        Py_CLEAR(self->guard_cell);
        Py_CLEAR(self->guarded);
    }
    else {
        Py_INCREF(guard_cell);
        Py_XSETREF(self->guard_cell, guard_cell);
        Py_INCREF(guarded);
        Py_XSETREF(self->guarded, guarded);
    }
    PyObject *buffers = PyDict_New();
    if (buffers == NULL)
        return -1;
    Py_XSETREF(self->buffers, buffers);
    self->cached_ident = 0;
    self->cached_tid = 0;
    Py_CLEAR(self->cached_buf);
    self->vcall = recorder_call;
    return 0;
}

static void
recorder_dealloc(RecorderObject *self)
{
    Py_XDECREF(self->buffers);
    Py_XDECREF(self->bind);
    Py_XDECREF(self->cached_buf);
    Py_XDECREF(self->guard_cell);
    Py_XDECREF(self->guarded);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
recorder_invalidate(RecorderObject *self, PyObject *Py_UNUSED(ignored))
{
    self->cached_ident = 0;
    Py_CLEAR(self->cached_buf);
    if (self->buffers != NULL)
        PyDict_Clear(self->buffers);
    Py_RETURN_NONE;
}

static PyMethodDef recorder_methods[] = {
    {"store", (PyCFunction)(void (*)(void))recorder_store, METH_FASTCALL,
     "Pack one event like a call, but never divert to the guarded "
     "callable (the firewall's own path into the kernel)."},
    {"invalidate", (PyCFunction)recorder_invalidate, METH_NOARGS,
     "Drop every cached thread buffer; the next record on each thread "
     "re-enters the bind callable."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject RecorderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fastrecord.Recorder",
    .tp_basicsize = sizeof(RecorderObject),
    .tp_dealloc = (destructor)recorder_dealloc,
    .tp_call = PyVectorcall_Call,
    .tp_vectorcall_offset = offsetof(RecorderObject, vcall),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled encode-at-record kernel (39-byte spill layout).",
    .tp_methods = recorder_methods,
    .tp_init = (initproc)recorder_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef fastrecord_module = {
    PyModuleDef_HEAD_INIT,
    "_fastrecord",
    "Compiled fast path for the DSspy record hot loop.",
    -1,
    NULL,
};

PyMODINIT_FUNC
PyInit__fastrecord(void)
{
    if (PyType_Ready(&RecorderType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&fastrecord_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&RecorderType);
    if (PyModule_AddObject(m, "Recorder", (PyObject *)&RecorderType) < 0) {
        Py_DECREF(&RecorderType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "RECORD_SIZE", RECORD_SIZE) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
