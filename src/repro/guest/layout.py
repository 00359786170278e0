"""Binary struct layouts for guest kernel objects.

Kernel objects are stored in guest physical memory as packed little-endian
records. :class:`StructDef` is the single codec used both by the guest when
*writing* structures and by the introspection layer when *parsing* them, so
the two sides can never disagree about offsets — mirroring how LibVMI and a
real kernel agree via debug symbols.
"""

import struct as _struct

import numpy as _np

from repro.errors import IntrospectionError

_SCALARS = {
    "u8": "<B",
    "u16": "<H",
    "u32": "<I",
    "u64": "<Q",
    "i8": "<b",
    "i16": "<h",
    "i32": "<i",
    "i64": "<q",
}

#: struct codes -> numpy little-endian format strings (bytes handled apart).
_NUMPY_FORMATS = {
    "B": "u1", "H": "<u2", "I": "<u4", "Q": "<u8",
    "b": "i1", "h": "<i2", "i": "<i4", "q": "<i8",
}


class Field:
    """One named field of a :class:`StructDef`."""

    def __init__(self, name, kind, offset):
        self.name = name
        self.kind = kind
        self.offset = offset
        if isinstance(kind, tuple):
            tag, length = kind
            if tag != "bytes":
                raise IntrospectionError("unknown compound field kind %r" % (kind,))
            self.size = length
            self._fmt = None
            self.code = "%ds" % length
        else:
            fmt = _SCALARS.get(kind)
            if fmt is None:
                raise IntrospectionError("unknown field kind %r" % (kind,))
            self.size = _struct.calcsize(fmt)
            self._fmt = fmt
            self.code = fmt[1:]

    def pack_into(self, buffer, base, value):
        if self._fmt is None:
            data = bytes(value)[: self.size].ljust(self.size, b"\x00")
            buffer[base + self.offset : base + self.offset + self.size] = data
        else:
            _struct.pack_into(self._fmt, buffer, base + self.offset, value)

    def unpack_from(self, buffer, base):
        start = base + self.offset
        if self._fmt is None:
            return bytes(buffer[start : start + self.size])
        return _struct.unpack_from(self._fmt, buffer, start)[0]


class StructDef:
    """A packed record layout: ordered ``(name, kind)`` pairs.

    Kinds are ``u8/u16/u32/u64/i8/i16/i32/i64`` or ``("bytes", n)``.
    """

    def __init__(self, name, fields):
        self.name = name
        self.fields = []
        self._by_name = {}
        offset = 0
        for field_name, kind in fields:
            field = Field(field_name, kind, offset)
            offset += field.size
            self.fields.append(field)
            if field_name in self._by_name:
                raise IntrospectionError(
                    "duplicate field %r in struct %s" % (field_name, name)
                )
            self._by_name[field_name] = field
        self.size = offset
        # Fields are packed back to back with no padding, so the whole
        # record is one little-endian format string; a single precompiled
        # ``struct.Struct`` unpack replaces the per-field loop on the
        # decode hot path (bit-identical: "Ns" yields the same ``bytes``
        # a field-wise slice copy would).
        self.names = tuple(field.name for field in self.fields)
        self._fused = _struct.Struct("<" + "".join(f.code for f in self.fields))
        assert self._fused.size == self.size
        self._np_dtype = None

    def field(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise IntrospectionError(
                "struct %s has no field %r" % (self.name, name)
            ) from None

    def offset_of(self, name):
        return self.field(name).offset

    def encode(self, values):
        """Pack a dict of field values into ``self.size`` bytes."""
        buffer = bytearray(self.size)
        for field in self.fields:
            if field.name in values:
                field.pack_into(buffer, 0, values[field.name])
        return bytes(buffer)

    def decode(self, data, base=0):
        """Unpack ``self.size`` bytes (at ``base``) into a dict."""
        if len(data) - base < self.size:
            raise IntrospectionError(
                "buffer too small for struct %s: need %d bytes, have %d"
                % (self.name, self.size, len(data) - base)
            )
        return dict(zip(self.names, self._fused.unpack_from(data, base)))

    def unpack(self, data, base=0):
        """Decode one record into a value tuple ordered like ``names``."""
        if len(data) - base < self.size:
            raise IntrospectionError(
                "buffer too small for struct %s: need %d bytes, have %d"
                % (self.name, self.size, len(data) - base)
            )
        return self._fused.unpack_from(data, base)

    def numpy_dtype(self):
        """The numpy structured dtype matching this packed record layout.

        ``np.frombuffer(slab, dtype=layout.numpy_dtype())`` views a slab of
        contiguous records as a columnar record array without copying —
        the vectorized equivalent of :meth:`unpack` at a stride of ``size``.
        """
        if self._np_dtype is None:
            formats = [
                "S%d" % field.size if field._fmt is None
                else _NUMPY_FORMATS[field.code]
                for field in self.fields
            ]
            self._np_dtype = _np.dtype({
                "names": list(self.names),
                "formats": formats,
                "offsets": [field.offset for field in self.fields],
                "itemsize": self.size,
            })
        return self._np_dtype

    def read(self, memory, paddr):
        """Read and decode one record from physical memory."""
        return self.decode(memory.read(paddr, self.size))

    def write(self, memory, paddr, values):
        """Encode and write one record into physical memory."""
        memory.write(paddr, self.encode(values))

    def write_field(self, memory, paddr, name, value):
        """Overwrite a single field of a record already in memory."""
        field = self.field(name)
        buffer = bytearray(field.size)
        field.pack_into(buffer, -field.offset, value)
        memory.write(paddr + field.offset, bytes(buffer))

    def read_field(self, memory, paddr, name):
        """Read a single field of a record from physical memory."""
        field = self.field(name)
        data = memory.read(paddr + field.offset, field.size)
        return field.unpack_from(data, -field.offset)


def cstring(raw):
    """Decode a NUL-padded fixed-width byte field into a str."""
    return raw.split(b"\x00", 1)[0].decode("utf-8", errors="replace")
