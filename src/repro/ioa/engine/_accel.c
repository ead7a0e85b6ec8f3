/* Packed-key BFS core behind repro.ioa.engine.accel.
 *
 * One exploration = one AccelSearch, driven one BFS layer per call:
 * seed() installs the start key and each expand() expands the current
 * layer, so the Python side keeps the depth loop (and with it the
 * per-layer trace spans and the depth budget).  States are 64-bit
 * packed codes produced by repro.ioa.engine.encoding.StateEncoder
 * (bits_per_slot bits of slice id per component slot); the search
 * never sees a Python state object.  All hot-path data lives in flat C arrays:
 *
 *   - visited: open-addressing table key -> entry index, plus
 *     insertion-order entry arrays (key, parent index, action token)
 *     that double as the BFS queue (a layer is a contiguous index
 *     range) and as the parent log for counterexample reconstruction;
 *   - enabled memo: per (slot, slice id) -> token list, filled by the
 *     enabled_cb Python callback on first miss;
 *   - step memo: per (slot, slice id, token) -> successor slice ids,
 *     filled by the step_cb Python callback on first miss;
 *   - invariant cache: projected key -> verdict, so the invariant_cb
 *     Python callback runs once per distinct projection, not per state.
 *
 * The expansion order replicates the pure-Python engine exactly
 * (slots ascending, enabled order within a slot, cross-product with
 * the last owner varying fastest), as do the budget semantics: the
 * overflow successor is invariant-checked, then dropped, and the
 * whole search stops at once.  Callbacks must not touch the
 * AccelSearch object (the Python wrapper's closures only read the
 * StateEncoder, which holds that contract).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#define ACCEL_MAX_SLOTS 64

/* push() outcomes */
#define PUSH_OK 0
#define PUSH_DUP 1
#define PUSH_VIOLATION 2
#define PUSH_TRUNCATED 3

/* expand() outcomes */
#define EXPAND_DONE 0
#define EXPAND_VIOLATION 1
#define EXPAND_TRUNCATED 2

/* splitmix64 finalizer: cheap, well-mixed hash for 64-bit keys */
static inline uint64_t
hash64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

typedef struct {
    PyObject_HEAD

    int n;              /* component slots */
    int bits;           /* bits per slot in a packed key */
    uint64_t mask;      /* (1 << bits) - 1 */

    PyObject *enabled_cb; /* (slot, sid) -> ((token, owners), ...) */
    PyObject *step_cb;    /* (slot, sid, token) -> (sid, ...) */

    /* entries in BFS insertion order */
    uint64_t *keys;
    int64_t *parents;   /* entry index of predecessor, -1 for start */
    int32_t *tokens;    /* action token taken from predecessor */
    Py_ssize_t count, cap;
    /* the layer expand() works on next: entries [layer_start, layer_end) */
    Py_ssize_t layer_start, layer_end;

    /* visited: open addressing, key -> entry index (-1 = empty) */
    uint64_t *vis_key;
    int64_t *vis_idx;
    Py_ssize_t vis_cap, vis_used;

    /* token -> owner slots (offset/count into owner_pool; count -1 =
       unregistered) */
    int32_t *tok_off;
    int32_t *tok_cnt;
    Py_ssize_t tok_cap;
    int32_t *owner_pool;
    Py_ssize_t owner_len, owner_cap;

    /* enabled memo: per slot, sid -> offset/count into pair_pool
       (offset -1 = missing) */
    int32_t **en_off;
    int32_t **en_cnt;
    Py_ssize_t *en_cap;
    int32_t *pair_pool; /* tokens */
    Py_ssize_t pair_len, pair_cap;

    /* step memo: open addressing (slot, sid, token) -> offset/count
       into succ_pool (count -1 = empty slot) */
    uint64_t *st_key;
    int32_t *st_off;
    int32_t *st_cnt;
    Py_ssize_t st_cap, st_used;
    int32_t *succ_pool; /* successor sids */
    Py_ssize_t succ_len, succ_cap;

    /* invariant verdict cache: projected key -> verdict
       (state 0 = empty, 1 = violated, 2 = holds) */
    uint64_t *inv_key;
    int8_t *inv_state;
    Py_ssize_t inv_cap, inv_used;

    /* counters surfaced by stats() */
    unsigned long long transitions;
    unsigned long long enabled_calls;
    unsigned long long step_calls;
    unsigned long long invariant_calls;
} AccelSearch;

/* ------------------------------------------------------------------ */
/* allocation helpers                                                  */
/* ------------------------------------------------------------------ */

static int
grow_i32(int32_t **buf, Py_ssize_t *cap, Py_ssize_t need)
{
    Py_ssize_t newcap = *cap ? *cap : 256;
    while (newcap < need)
        newcap *= 2;
    if (newcap == *cap)
        return 0;
    int32_t *fresh = PyMem_Realloc(*buf, (size_t)newcap * sizeof(int32_t));
    if (!fresh) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = fresh;
    *cap = newcap;
    return 0;
}

static int
ensure_entry_cap(AccelSearch *self)
{
    if (self->count < self->cap)
        return 0;
    Py_ssize_t newcap = self->cap * 2;
    uint64_t *k = PyMem_Realloc(self->keys, (size_t)newcap * sizeof(uint64_t));
    if (!k) {
        PyErr_NoMemory();
        return -1;
    }
    self->keys = k;
    int64_t *p =
        PyMem_Realloc(self->parents, (size_t)newcap * sizeof(int64_t));
    if (!p) {
        PyErr_NoMemory();
        return -1;
    }
    self->parents = p;
    int32_t *t = PyMem_Realloc(self->tokens, (size_t)newcap * sizeof(int32_t));
    if (!t) {
        PyErr_NoMemory();
        return -1;
    }
    self->tokens = t;
    self->cap = newcap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* visited table                                                       */
/* ------------------------------------------------------------------ */

/* Entry index if present, else -1 with *slot_out = insert position. */
static Py_ssize_t
vis_probe(AccelSearch *self, uint64_t key, Py_ssize_t *slot_out)
{
    Py_ssize_t msk = self->vis_cap - 1;
    Py_ssize_t pos = (Py_ssize_t)(hash64(key) & (uint64_t)msk);
    while (self->vis_idx[pos] >= 0) {
        if (self->vis_key[pos] == key)
            return (Py_ssize_t)self->vis_idx[pos];
        pos = (pos + 1) & msk;
    }
    *slot_out = pos;
    return -1;
}

static int
vis_maybe_grow(AccelSearch *self)
{
    if (self->vis_used * 10 < self->vis_cap * 7)
        return 0;
    Py_ssize_t newcap = self->vis_cap * 2;
    uint64_t *nk = PyMem_Malloc((size_t)newcap * sizeof(uint64_t));
    int64_t *ni = PyMem_Malloc((size_t)newcap * sizeof(int64_t));
    if (!nk || !ni) {
        PyMem_Free(nk);
        PyMem_Free(ni);
        PyErr_NoMemory();
        return -1;
    }
    memset(ni, 0xFF, (size_t)newcap * sizeof(int64_t)); /* all -1 */
    Py_ssize_t msk = newcap - 1;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        uint64_t key = self->keys[i];
        Py_ssize_t pos = (Py_ssize_t)(hash64(key) & (uint64_t)msk);
        while (ni[pos] >= 0)
            pos = (pos + 1) & msk;
        nk[pos] = key;
        ni[pos] = (int64_t)i;
    }
    PyMem_Free(self->vis_key);
    PyMem_Free(self->vis_idx);
    self->vis_key = nk;
    self->vis_idx = ni;
    self->vis_cap = newcap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* token registration / enabled memo                                   */
/* ------------------------------------------------------------------ */

static int
register_token(AccelSearch *self, int32_t token, PyObject *owners)
{
    if (token < 0) {
        PyErr_SetString(PyExc_ValueError, "negative action token");
        return -1;
    }
    if ((Py_ssize_t)token >= self->tok_cap) {
        Py_ssize_t old = self->tok_cap;
        Py_ssize_t need = (Py_ssize_t)token + 1;
        if (grow_i32(&self->tok_off, &self->tok_cap, need) < 0)
            return -1;
        Py_ssize_t cap2 = old;
        if (grow_i32(&self->tok_cnt, &cap2, need) < 0)
            return -1;
        for (Py_ssize_t j = old; j < self->tok_cap; j++)
            self->tok_cnt[j] = -1;
    }
    if (self->tok_cnt[token] >= 0)
        return 0; /* already registered; owners are immutable */
    if (!PyTuple_Check(owners)) {
        PyErr_SetString(PyExc_TypeError, "owners must be a tuple of ints");
        return -1;
    }
    Py_ssize_t nowners = PyTuple_GET_SIZE(owners);
    if (nowners > ACCEL_MAX_SLOTS) {
        PyErr_SetString(PyExc_OverflowError, "too many owner slots");
        return -1;
    }
    if (self->owner_len + nowners > self->owner_cap) {
        if (grow_i32(&self->owner_pool, &self->owner_cap,
                     self->owner_len + nowners) < 0)
            return -1;
    }
    int32_t off = (int32_t)self->owner_len;
    for (Py_ssize_t j = 0; j < nowners; j++) {
        long slot = PyLong_AsLong(PyTuple_GET_ITEM(owners, j));
        if (slot == -1 && PyErr_Occurred())
            return -1;
        if (slot < 0 || slot >= self->n) {
            PyErr_SetString(PyExc_ValueError, "owner slot out of range");
            return -1;
        }
        self->owner_pool[self->owner_len++] = (int32_t)slot;
    }
    self->tok_off[token] = off;
    self->tok_cnt[token] = (int32_t)nowners;
    return 0;
}

static int
get_enabled(AccelSearch *self, int slot, uint32_t sid, int32_t *off,
            int32_t *cnt)
{
    if ((Py_ssize_t)sid >= self->en_cap[slot]) {
        Py_ssize_t old = self->en_cap[slot];
        Py_ssize_t cap2 = old;
        if (grow_i32(&self->en_off[slot], &cap2, (Py_ssize_t)sid + 1) < 0)
            return -1;
        if (grow_i32(&self->en_cnt[slot], &self->en_cap[slot],
                     (Py_ssize_t)sid + 1) < 0)
            return -1;
        for (Py_ssize_t j = old; j < self->en_cap[slot]; j++)
            self->en_off[slot][j] = -1;
    }
    int32_t cached = self->en_off[slot][sid];
    if (cached >= 0) {
        *off = cached;
        *cnt = self->en_cnt[slot][sid];
        return 0;
    }
    self->enabled_calls++;
    PyObject *cb_args[2];
    cb_args[0] = PyLong_FromLong((long)slot);
    cb_args[1] = PyLong_FromUnsignedLong((unsigned long)sid);
    if (!cb_args[0] || !cb_args[1]) {
        Py_XDECREF(cb_args[0]);
        Py_XDECREF(cb_args[1]);
        return -1;
    }
    PyObject *res = PyObject_Vectorcall(self->enabled_cb, cb_args, 2, NULL);
    Py_DECREF(cb_args[0]);
    Py_DECREF(cb_args[1]);
    if (!res)
        return -1;
    PyObject *fast =
        PySequence_Fast(res, "enabled_cb must return a sequence");
    Py_DECREF(res);
    if (!fast)
        return -1;
    Py_ssize_t npairs = PySequence_Fast_GET_SIZE(fast);
    if (self->pair_len + npairs > self->pair_cap) {
        if (grow_i32(&self->pair_pool, &self->pair_cap,
                     self->pair_len + npairs) < 0) {
            Py_DECREF(fast);
            return -1;
        }
    }
    int32_t newoff = (int32_t)self->pair_len;
    for (Py_ssize_t j = 0; j < npairs; j++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(fast, j);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "enabled_cb items must be (token, owners)");
            Py_DECREF(fast);
            return -1;
        }
        long token = PyLong_AsLong(PyTuple_GET_ITEM(pair, 0));
        if (token == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (register_token(self, (int32_t)token,
                           PyTuple_GET_ITEM(pair, 1)) < 0) {
            Py_DECREF(fast);
            return -1;
        }
        self->pair_pool[self->pair_len++] = (int32_t)token;
    }
    Py_DECREF(fast);
    self->en_off[slot][sid] = newoff;
    self->en_cnt[slot][sid] = (int32_t)npairs;
    *off = newoff;
    *cnt = (int32_t)npairs;
    return 0;
}

/* ------------------------------------------------------------------ */
/* step memo                                                           */
/* ------------------------------------------------------------------ */

static int
st_grow(AccelSearch *self)
{
    Py_ssize_t newcap = self->st_cap * 2;
    uint64_t *nk = PyMem_Malloc((size_t)newcap * sizeof(uint64_t));
    int32_t *no = PyMem_Malloc((size_t)newcap * sizeof(int32_t));
    int32_t *nc = PyMem_Malloc((size_t)newcap * sizeof(int32_t));
    if (!nk || !no || !nc) {
        PyMem_Free(nk);
        PyMem_Free(no);
        PyMem_Free(nc);
        PyErr_NoMemory();
        return -1;
    }
    memset(nc, 0xFF, (size_t)newcap * sizeof(int32_t)); /* all -1 */
    Py_ssize_t msk = newcap - 1;
    for (Py_ssize_t i = 0; i < self->st_cap; i++) {
        if (self->st_cnt[i] < 0)
            continue;
        uint64_t key = self->st_key[i];
        Py_ssize_t pos = (Py_ssize_t)(hash64(key) & (uint64_t)msk);
        while (nc[pos] >= 0)
            pos = (pos + 1) & msk;
        nk[pos] = key;
        no[pos] = self->st_off[i];
        nc[pos] = self->st_cnt[i];
    }
    PyMem_Free(self->st_key);
    PyMem_Free(self->st_off);
    PyMem_Free(self->st_cnt);
    self->st_key = nk;
    self->st_off = no;
    self->st_cnt = nc;
    self->st_cap = newcap;
    return 0;
}

static int
get_steps(AccelSearch *self, int slot, uint32_t sid, int32_t token,
          int32_t *off, int32_t *cnt)
{
    if (sid >= (1u << 28) || (uint32_t)token >= (1u << 28)) {
        PyErr_SetString(PyExc_OverflowError,
                        "accel step-memo key capacity exceeded");
        return -1;
    }
    uint64_t key = ((uint64_t)(unsigned)slot << 56) | ((uint64_t)sid << 28) |
                   (uint64_t)(uint32_t)token;
    Py_ssize_t msk = self->st_cap - 1;
    Py_ssize_t pos = (Py_ssize_t)(hash64(key) & (uint64_t)msk);
    while (self->st_cnt[pos] >= 0) {
        if (self->st_key[pos] == key) {
            *off = self->st_off[pos];
            *cnt = self->st_cnt[pos];
            return 0;
        }
        pos = (pos + 1) & msk;
    }
    self->step_calls++;
    PyObject *cb_args[3];
    cb_args[0] = PyLong_FromLong((long)slot);
    cb_args[1] = PyLong_FromUnsignedLong((unsigned long)sid);
    cb_args[2] = PyLong_FromLong((long)token);
    if (!cb_args[0] || !cb_args[1] || !cb_args[2]) {
        Py_XDECREF(cb_args[0]);
        Py_XDECREF(cb_args[1]);
        Py_XDECREF(cb_args[2]);
        return -1;
    }
    PyObject *res = PyObject_Vectorcall(self->step_cb, cb_args, 3, NULL);
    Py_DECREF(cb_args[0]);
    Py_DECREF(cb_args[1]);
    Py_DECREF(cb_args[2]);
    if (!res)
        return -1;
    PyObject *fast = PySequence_Fast(res, "step_cb must return a sequence");
    Py_DECREF(res);
    if (!fast)
        return -1;
    Py_ssize_t nsucc = PySequence_Fast_GET_SIZE(fast);
    if (self->succ_len + nsucc > self->succ_cap) {
        if (grow_i32(&self->succ_pool, &self->succ_cap,
                     self->succ_len + nsucc) < 0) {
            Py_DECREF(fast);
            return -1;
        }
    }
    int32_t newoff = (int32_t)self->succ_len;
    for (Py_ssize_t j = 0; j < nsucc; j++) {
        long sid_succ = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, j));
        if (sid_succ == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (sid_succ < 0 || (uint64_t)sid_succ > self->mask) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_OverflowError,
                            "successor slice id exceeds the slot budget");
            return -1;
        }
        self->succ_pool[self->succ_len++] = (int32_t)sid_succ;
    }
    Py_DECREF(fast);
    /* the callback ran Python but cannot have touched this table */
    self->st_key[pos] = key;
    self->st_off[pos] = newoff;
    self->st_cnt[pos] = (int32_t)nsucc;
    self->st_used++;
    *off = newoff;
    *cnt = (int32_t)nsucc;
    if (self->st_used * 10 >= self->st_cap * 7)
        return st_grow(self);
    return 0;
}

/* ------------------------------------------------------------------ */
/* invariant cache                                                     */
/* ------------------------------------------------------------------ */

static int
inv_call(AccelSearch *self, PyObject *cb, uint64_t key)
{
    self->invariant_calls++;
    PyObject *arg = PyLong_FromUnsignedLongLong(key);
    if (!arg)
        return -1;
    PyObject *res = PyObject_CallFunctionObjArgs(cb, arg, NULL);
    Py_DECREF(arg);
    if (!res)
        return -1;
    int truth = PyObject_IsTrue(res);
    Py_DECREF(res);
    return truth;
}

static int
inv_grow(AccelSearch *self)
{
    Py_ssize_t newcap = self->inv_cap * 2;
    uint64_t *nk = PyMem_Malloc((size_t)newcap * sizeof(uint64_t));
    int8_t *ns = PyMem_Malloc((size_t)newcap * sizeof(int8_t));
    if (!nk || !ns) {
        PyMem_Free(nk);
        PyMem_Free(ns);
        PyErr_NoMemory();
        return -1;
    }
    memset(ns, 0, (size_t)newcap * sizeof(int8_t));
    Py_ssize_t msk = newcap - 1;
    for (Py_ssize_t i = 0; i < self->inv_cap; i++) {
        if (!self->inv_state[i])
            continue;
        uint64_t key = self->inv_key[i];
        Py_ssize_t pos = (Py_ssize_t)(hash64(key) & (uint64_t)msk);
        while (ns[pos])
            pos = (pos + 1) & msk;
        nk[pos] = key;
        ns[pos] = self->inv_state[i];
    }
    PyMem_Free(self->inv_key);
    PyMem_Free(self->inv_state);
    self->inv_key = nk;
    self->inv_state = ns;
    self->inv_cap = newcap;
    return 0;
}

/* Verdict (0/1) of the invariant on key, cached by key & proj_mask. */
static int
inv_cached(AccelSearch *self, PyObject *cb, uint64_t key, uint64_t proj_mask)
{
    uint64_t pk = key & proj_mask;
    Py_ssize_t msk = self->inv_cap - 1;
    Py_ssize_t pos = (Py_ssize_t)(hash64(pk) & (uint64_t)msk);
    while (self->inv_state[pos]) {
        if (self->inv_key[pos] == pk)
            return self->inv_state[pos] - 1;
        pos = (pos + 1) & msk;
    }
    int verdict = inv_call(self, cb, key);
    if (verdict < 0)
        return -1;
    self->inv_key[pos] = pk;
    self->inv_state[pos] = (int8_t)(verdict + 1);
    self->inv_used++;
    if (self->inv_used * 10 >= self->inv_cap * 7) {
        if (inv_grow(self) < 0)
            return -1;
    }
    return verdict;
}

/* ------------------------------------------------------------------ */
/* push one successor                                                  */
/* ------------------------------------------------------------------ */

static int
push(AccelSearch *self, uint64_t key, Py_ssize_t parent, int32_t token,
     PyObject *invariant_cb, uint64_t proj_mask, Py_ssize_t max_states)
{
    self->transitions++;
    Py_ssize_t slot_pos = 0;
    if (vis_probe(self, key, &slot_pos) >= 0)
        return PUSH_DUP;
    if (ensure_entry_cap(self) < 0)
        return -1;
    Py_ssize_t idx = self->count;
    self->keys[idx] = key;
    self->parents[idx] = (int64_t)parent;
    self->tokens[idx] = token;
    self->count = idx + 1;
    self->vis_key[slot_pos] = key;
    self->vis_idx[slot_pos] = (int64_t)idx;
    self->vis_used++;
    if (vis_maybe_grow(self) < 0)
        return -1;
    if (invariant_cb != Py_None) {
        int verdict = proj_mask
                          ? inv_cached(self, invariant_cb, key, proj_mask)
                          : inv_call(self, invariant_cb, key);
        if (verdict < 0)
            return -1;
        if (!verdict) {
            /* mirror the engine: the violating state (the last entry)
               is reported even when it would have burst the budget */
            return PUSH_VIOLATION;
        }
    }
    if (self->count > max_states) {
        /* budget spent: drop the overflow entry and stop the whole
           search at once (the stale hash slot is harmless -- nothing
           probes after this) */
        self->count = idx;
        return PUSH_TRUNCATED;
    }
    return PUSH_OK;
}

/* ------------------------------------------------------------------ */
/* methods                                                             */
/* ------------------------------------------------------------------ */

static void
accel_reset(AccelSearch *self)
{
    self->count = 0;
    self->layer_start = 0;
    self->layer_end = 0;
    memset(self->vis_idx, 0xFF, (size_t)self->vis_cap * sizeof(int64_t));
    self->vis_used = 0;
    memset(self->inv_state, 0, (size_t)self->inv_cap * sizeof(int8_t));
    self->inv_used = 0;
    self->transitions = 0;
    self->enabled_calls = 0;
    self->step_calls = 0;
    self->invariant_calls = 0;
}

/* seed(start_key): reset the search to the one-entry start layer (the
   caller has already invariant-checked the start state, matching the
   pure-Python engine's preamble). */
static PyObject *
AccelSearch_seed(AccelSearch *self, PyObject *args)
{
    unsigned long long start_key_ull;
    if (!PyArg_ParseTuple(args, "K", &start_key_ull))
        return NULL;
    uint64_t start_key = (uint64_t)start_key_ull;

    accel_reset(self);
    Py_ssize_t slot_pos = 0;
    (void)vis_probe(self, start_key, &slot_pos);
    self->keys[0] = start_key;
    self->parents[0] = -1;
    self->tokens[0] = -1;
    self->count = 1;
    self->vis_key[slot_pos] = start_key;
    self->vis_idx[slot_pos] = 0;
    self->vis_used = 1;
    self->layer_start = 0;
    self->layer_end = 1;
    Py_RETURN_NONE;
}

/* expand(max_states, invariant_cb, proj_mask) -> (status, fired, width):
   expand every entry of the current layer, then make the entries it
   appended the current layer.  status is EXPAND_DONE, EXPAND_VIOLATION
   (the violating state is the last entry) or EXPAND_TRUNCATED; fired
   counts the transitions taken, width the size of the next layer. */
static PyObject *
AccelSearch_expand(AccelSearch *self, PyObject *args)
{
    Py_ssize_t max_states;
    PyObject *invariant_cb;
    unsigned long long proj_mask_ull;
    if (!PyArg_ParseTuple(args, "nOK", &max_states, &invariant_cb,
                          &proj_mask_ull))
        return NULL;
    uint64_t proj_mask = (uint64_t)proj_mask_ull;

    int n = self->n;
    int bits = self->bits;
    uint64_t mask = self->mask;
    int status = EXPAND_DONE;
    unsigned long long fired_before = self->transitions;
    Py_ssize_t layer_end = self->layer_end;

    for (Py_ssize_t i = self->layer_start; i < layer_end; i++) {
        uint64_t key = self->keys[i];
        for (int slot = 0; slot < n; slot++) {
            uint32_t sid = (uint32_t)((key >> (slot * bits)) & mask);
            int32_t eoff, ecnt;
            if (get_enabled(self, slot, sid, &eoff, &ecnt) < 0)
                return NULL;
            for (int32_t p = 0; p < ecnt; p++) {
                int32_t token = self->pair_pool[eoff + p];
                int32_t ooff = self->tok_off[token];
                int32_t ocnt = self->tok_cnt[token];
                if (ocnt == 0)
                    continue;
                if (ocnt == 1) {
                    int oslot = (int)self->owner_pool[ooff];
                    int oshift = oslot * bits;
                    uint32_t osid = (uint32_t)((key >> oshift) & mask);
                    int32_t soff, scnt;
                    if (get_steps(self, oslot, osid, token, &soff, &scnt) < 0)
                        return NULL;
                    uint64_t cleared = key & ~(mask << oshift);
                    for (int32_t s = 0; s < scnt; s++) {
                        uint64_t nk =
                            cleared |
                            ((uint64_t)(uint32_t)self->succ_pool[soff + s]
                             << oshift);
                        int rc = push(self, nk, i, token, invariant_cb,
                                      proj_mask, max_states);
                        if (rc < 0)
                            return NULL;
                        if (rc == PUSH_VIOLATION) {
                            status = EXPAND_VIOLATION;
                            goto done;
                        }
                        if (rc == PUSH_TRUNCATED) {
                            status = EXPAND_TRUNCATED;
                            goto done;
                        }
                    }
                    continue;
                }
                /* shared action: cross-product over owner slots, last
                   owner varying fastest */
                int oslots[ACCEL_MAX_SLOTS];
                int32_t soffs[ACCEL_MAX_SLOTS];
                int32_t scnts[ACCEL_MAX_SLOTS];
                int32_t idxs[ACCEL_MAX_SLOTS];
                int enabled_everywhere = 1;
                for (int32_t k = 0; k < ocnt; k++) {
                    int oslot = (int)self->owner_pool[ooff + k];
                    uint32_t osid =
                        (uint32_t)((key >> (oslot * bits)) & mask);
                    int32_t soff, scnt;
                    if (get_steps(self, oslot, osid, token, &soff, &scnt) < 0)
                        return NULL;
                    if (scnt == 0) {
                        enabled_everywhere = 0;
                        break;
                    }
                    oslots[k] = oslot;
                    soffs[k] = soff;
                    scnts[k] = scnt;
                    idxs[k] = 0;
                }
                if (!enabled_everywhere)
                    continue;
                for (;;) {
                    uint64_t nk = key;
                    for (int32_t k = 0; k < ocnt; k++) {
                        int oshift = oslots[k] * bits;
                        nk = (nk & ~(mask << oshift)) |
                             ((uint64_t)(uint32_t)
                                  self->succ_pool[soffs[k] + idxs[k]]
                              << oshift);
                    }
                    int rc = push(self, nk, i, token, invariant_cb,
                                  proj_mask, max_states);
                    if (rc < 0)
                        return NULL;
                    if (rc == PUSH_VIOLATION) {
                        status = EXPAND_VIOLATION;
                        goto done;
                    }
                    if (rc == PUSH_TRUNCATED) {
                        status = EXPAND_TRUNCATED;
                        goto done;
                    }
                    int32_t k = ocnt - 1;
                    while (k >= 0) {
                        if (++idxs[k] < scnts[k])
                            break;
                        idxs[k] = 0;
                        k--;
                    }
                    if (k < 0)
                        break;
                }
            }
        }
    }

done:
    self->layer_start = layer_end;
    self->layer_end = self->count;
    return Py_BuildValue("(iKn)", status,
                         self->transitions - fired_before,
                         self->count - layer_end);
}

static PyObject *
AccelSearch_count(AccelSearch *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->count);
}

static PyObject *
AccelSearch_keys(AccelSearch *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->count);
    if (!out)
        return NULL;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        PyObject *value = PyLong_FromUnsignedLongLong(
            (unsigned long long)self->keys[i]);
        if (!value) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, value);
    }
    return out;
}

static PyObject *
AccelSearch_entry(AccelSearch *self, PyObject *args)
{
    Py_ssize_t i;
    if (!PyArg_ParseTuple(args, "n", &i))
        return NULL;
    if (i < 0 || i >= self->count) {
        PyErr_SetString(PyExc_IndexError, "entry index out of range");
        return NULL;
    }
    return Py_BuildValue("(KLi)", (unsigned long long)self->keys[i],
                         (long long)self->parents[i], (int)self->tokens[i]);
}

static PyObject *
AccelSearch_stats(AccelSearch *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "{s:K,s:K,s:K,s:K,s:n}", "transitions",
        (unsigned long long)self->transitions, "enabled_calls",
        (unsigned long long)self->enabled_calls, "step_calls",
        (unsigned long long)self->step_calls, "invariant_calls",
        (unsigned long long)self->invariant_calls, "states", self->count);
}

/* ------------------------------------------------------------------ */
/* lifecycle                                                           */
/* ------------------------------------------------------------------ */

static int
AccelSearch_init(AccelSearch *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n_slots", "bits_per_slot", "enabled_cb",
                             "step_cb", NULL};
    int n, bits;
    PyObject *enabled_cb, *step_cb;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iiOO", kwlist, &n, &bits,
                                     &enabled_cb, &step_cb))
        return -1;
    if (n < 1 || n > ACCEL_MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError, "n_slots out of range");
        return -1;
    }
    if (bits < 1 || bits > 64 || (int64_t)n * bits > 64) {
        PyErr_SetString(PyExc_ValueError,
                        "bits_per_slot must pack n_slots into 64 bits");
        return -1;
    }
    if (!PyCallable_Check(enabled_cb) || !PyCallable_Check(step_cb)) {
        PyErr_SetString(PyExc_TypeError, "callbacks must be callable");
        return -1;
    }
    self->n = n;
    self->bits = bits;
    self->mask = bits >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << bits) - 1);
    Py_INCREF(enabled_cb);
    Py_XSETREF(self->enabled_cb, enabled_cb);
    Py_INCREF(step_cb);
    Py_XSETREF(self->step_cb, step_cb);

    self->cap = 4096;
    self->keys = PyMem_Malloc((size_t)self->cap * sizeof(uint64_t));
    self->parents = PyMem_Malloc((size_t)self->cap * sizeof(int64_t));
    self->tokens = PyMem_Malloc((size_t)self->cap * sizeof(int32_t));
    self->vis_cap = 8192;
    self->vis_key = PyMem_Malloc((size_t)self->vis_cap * sizeof(uint64_t));
    self->vis_idx = PyMem_Malloc((size_t)self->vis_cap * sizeof(int64_t));
    self->st_cap = 4096;
    self->st_key = PyMem_Malloc((size_t)self->st_cap * sizeof(uint64_t));
    self->st_off = PyMem_Malloc((size_t)self->st_cap * sizeof(int32_t));
    self->st_cnt = PyMem_Malloc((size_t)self->st_cap * sizeof(int32_t));
    self->inv_cap = 1024;
    self->inv_key = PyMem_Malloc((size_t)self->inv_cap * sizeof(uint64_t));
    self->inv_state = PyMem_Malloc((size_t)self->inv_cap * sizeof(int8_t));
    self->en_off = PyMem_Malloc((size_t)n * sizeof(int32_t *));
    self->en_cnt = PyMem_Malloc((size_t)n * sizeof(int32_t *));
    self->en_cap = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    if (!self->keys || !self->parents || !self->tokens || !self->vis_key ||
        !self->vis_idx || !self->st_key || !self->st_off || !self->st_cnt ||
        !self->inv_key || !self->inv_state || !self->en_off ||
        !self->en_cnt || !self->en_cap) {
        PyErr_NoMemory();
        return -1;
    }
    for (int slot = 0; slot < n; slot++) {
        self->en_off[slot] = NULL;
        self->en_cnt[slot] = NULL;
        self->en_cap[slot] = 0;
    }
    self->tok_off = NULL;
    self->tok_cnt = NULL;
    self->tok_cap = 0;
    self->owner_pool = NULL;
    self->owner_len = 0;
    self->owner_cap = 0;
    self->pair_pool = NULL;
    self->pair_len = 0;
    self->pair_cap = 0;
    self->succ_pool = NULL;
    self->succ_len = 0;
    self->succ_cap = 0;
    self->st_used = 0;
    memset(self->st_cnt, 0xFF, (size_t)self->st_cap * sizeof(int32_t));
    accel_reset(self);
    return 0;
}

static void
AccelSearch_dealloc(AccelSearch *self)
{
    Py_XDECREF(self->enabled_cb);
    Py_XDECREF(self->step_cb);
    PyMem_Free(self->keys);
    PyMem_Free(self->parents);
    PyMem_Free(self->tokens);
    PyMem_Free(self->vis_key);
    PyMem_Free(self->vis_idx);
    PyMem_Free(self->st_key);
    PyMem_Free(self->st_off);
    PyMem_Free(self->st_cnt);
    PyMem_Free(self->inv_key);
    PyMem_Free(self->inv_state);
    if (self->en_off || self->en_cnt) {
        for (int slot = 0; slot < self->n; slot++) {
            if (self->en_off)
                PyMem_Free(self->en_off[slot]);
            if (self->en_cnt)
                PyMem_Free(self->en_cnt[slot]);
        }
    }
    PyMem_Free(self->en_off);
    PyMem_Free(self->en_cnt);
    PyMem_Free(self->en_cap);
    PyMem_Free(self->tok_off);
    PyMem_Free(self->tok_cnt);
    PyMem_Free(self->owner_pool);
    PyMem_Free(self->pair_pool);
    PyMem_Free(self->succ_pool);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef AccelSearch_methods[] = {
    {"seed", (PyCFunction)AccelSearch_seed, METH_VARARGS,
     "seed(start_key): restart the search from one start entry."},
    {"expand", (PyCFunction)AccelSearch_expand, METH_VARARGS,
     "expand(max_states, invariant_cb, proj_mask) -> (status, fired, "
     "width)\nExpand the current BFS layer; status 0 = done, 1 = "
     "violation (last entry), 2 = truncated."},
    {"count", (PyCFunction)AccelSearch_count, METH_NOARGS,
     "Number of visited entries."},
    {"keys", (PyCFunction)AccelSearch_keys, METH_NOARGS,
     "Packed keys of all entries in BFS insertion order."},
    {"entry", (PyCFunction)AccelSearch_entry, METH_VARARGS,
     "entry(i) -> (key, parent_index, token)."},
    {"stats", (PyCFunction)AccelSearch_stats, METH_NOARGS,
     "Search counters (transitions, callback counts, states)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject AccelSearchType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "_repro_accel.AccelSearch",
    .tp_basicsize = sizeof(AccelSearch),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Packed-key BFS over encoder callbacks.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)AccelSearch_init,
    .tp_dealloc = (destructor)AccelSearch_dealloc,
    .tp_methods = AccelSearch_methods,
};

static PyModuleDef accel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_repro_accel",
    .m_doc = "Compiled packed-key BFS core for the exploration engine.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__repro_accel(void)
{
    if (PyType_Ready(&AccelSearchType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&accel_module);
    if (!module)
        return NULL;
    Py_INCREF(&AccelSearchType);
    if (PyModule_AddObject(module, "AccelSearch",
                           (PyObject *)&AccelSearchType) < 0) {
        Py_DECREF(&AccelSearchType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
