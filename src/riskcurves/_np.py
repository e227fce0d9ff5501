"""numpy, imported on first use.

The computing modules take ``np`` from here, so importing the package,
building specs, validating a config and reporting on a result never load
numpy; the first numeric call does.  Unlike ``importlib.util.LazyLoader``,
this leaves ``sys.modules["numpy"]`` to the real module.
"""


class _LazyNumpy:
    """Stands in for the numpy module: the first attribute access imports
    numpy, and each attribute is cached on the proxy once looked up."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()
